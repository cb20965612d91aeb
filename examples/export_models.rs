//! Model interchange: export an extracted plane macromodel as a SPICE
//! subcircuit and its S-parameters as a Touchstone file — the two formats
//! downstream SI tools consume.
//!
//! Files are written under `target/exports/`.
//!
//! Run with `cargo run --release --example export_models`.

use pdn::prelude::*;
use pdn_extract::Realization;
use std::error::Error;
use std::fs;
use std::path::Path;

fn main() -> Result<(), Box<dyn Error>> {
    println!("== model export: SPICE subcircuit + Touchstone ==\n");
    let spec = PlaneSpec::rectangle(mm(30.0), mm(20.0), 0.4e-3, 4.4)?
        .with_sheet_resistance(1e-3)
        .with_cell_size(mm(2.5))
        .with_port("VDD_CPU", mm(5.0), mm(10.0))
        .with_port("VDD_MEM", mm(25.0), mm(10.0));
    let extracted = spec.extract(&NodeSelection::PortsAndGrid { stride: 2 })?;
    let eq = extracted.equivalent();

    let out_dir = Path::new("target/exports");
    fs::create_dir_all(out_dir)?;

    // --- SPICE deck -------------------------------------------------------
    let deck = eq.to_spice_subckt("PDN_PLANE", Realization::Passive);
    let sp_path = out_dir.join("pdn_plane.sp");
    fs::write(&sp_path, &deck)?;
    println!("SPICE subcircuit -> {}", sp_path.display());
    println!(
        "  {} element cards, interface: .SUBCKT PDN_PLANE VDD_CPU VDD_MEM",
        deck.lines()
            .filter(|l| l.starts_with(['R', 'L', 'C']))
            .count()
    );

    // --- Touchstone -------------------------------------------------------
    let freqs: Vec<f64> = (1..=100).map(|k| k as f64 * 50e6).collect();
    let mut mats = Vec::with_capacity(freqs.len());
    for &f in &freqs {
        mats.push(eq.s_parameters(f, 50.0)?);
    }
    let ts = pdn_circuit::touchstone(&freqs, &mats, 50.0)?;
    let s2p_path = out_dir.join("pdn_plane.s2p");
    fs::write(&s2p_path, &ts)?;
    println!("Touchstone       -> {}", s2p_path.display());
    println!("  {} frequency points, 50 MHz .. 5 GHz", freqs.len());

    // Sanity echo of the first few lines of each.
    println!("\nSPICE deck head:");
    for line in deck.lines().take(6) {
        println!("  {line}");
    }
    println!("\nTouchstone head:");
    for line in ts.lines().take(5) {
        println!("  {line}");
    }
    Ok(())
}
