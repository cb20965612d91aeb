//! Board-level co-simulation integration tests: the four subsystems
//! (devices, packages, signal nets, power planes) interacting in one
//! solve, plus frequency-domain views of the same board.

use pdn::prelude::*;
use pdn_core::cosim::SignalLineSpec;
use pdn_extract::Realization;

fn board() -> BoardSpec {
    let plane = PlaneSpec::rectangle(mm(50.0), mm(40.0), 0.4e-3, 4.4)
        .expect("valid pair")
        .with_sheet_resistance(1e-3)
        .with_cell_size(mm(5.0));
    BoardSpec::new(plane, 3.3, Point::new(mm(4.0), mm(4.0))).with_chip(ChipSpec::cmos(
        "U1",
        Point::new(mm(38.0), mm(28.0)),
        4,
    ))
}

#[test]
fn driver_switching_couples_into_the_plane() {
    let sys = board()
        .build(&NodeSelection::PortsAndGrid { stride: 3 }, 4)
        .expect("buildable");
    let out = sys.run(18e-9, 0.05e-9).expect("runnable");
    // The driver output toggles rail to rail.
    let out_max = out.driver_output.iter().fold(0.0f64, |m, &v| m.max(v));
    let out_min = out
        .driver_output
        .iter()
        .fold(f64::INFINITY, |m, &v| m.min(v));
    assert!(
        out_max > 2.8 && out_min < 0.4,
        "full swing: {out_min}..{out_max}"
    );
    // The plane sees the event.
    assert!(out.plane_noise_peak > 0.01);
    // And the supply delivers a transient.
    let i_pk = out.supply_current.iter().fold(0.0f64, |m, &v| m.max(v));
    assert!(i_pk > 0.01);
}

#[test]
fn rail_noise_disturbs_a_victim_line() {
    // Full Fig. 3 partition: a quiet driver shares the rail with three
    // aggressors; its transmission line's far end shows the coupled noise.
    let chip = ChipSpec::cmos("U1", Point::new(mm(38.0), mm(28.0)), 4)
        .with_line(SignalLineSpec::z50(0.03));
    let plane = PlaneSpec::rectangle(mm(50.0), mm(40.0), 0.4e-3, 4.4)
        .expect("valid pair")
        .with_sheet_resistance(1e-3)
        .with_cell_size(mm(5.0));
    let spec = BoardSpec::new(plane, 3.3, Point::new(mm(4.0), mm(4.0))).with_chip(chip);
    // Driver 3 idles low; drivers 0-2 switch.
    let sys = spec
        .build(&NodeSelection::PortsAndGrid { stride: 3 }, 3)
        .expect("buildable");
    assert_eq!(sys.partition().signal_nets, 4);
    let out = sys.run(18e-9, 0.05e-9).expect("runnable");
    // The victim line's driver holds low, but SSN leaks through the
    // output stage onto the line — nonzero yet far below the rail.
    let victim_far = sys
        .circuit()
        .find_node("U1_far3")
        .expect("victim far-end node exists");
    // Re-run through the raw circuit to probe the victim node.
    let res = sys
        .circuit()
        .transient(&TransientSpec::new(18e-9, 0.05e-9).with_settle(400.0 * 0.05e-9))
        .expect("runnable");
    let v_peak = res
        .voltage(victim_far)
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!(v_peak < 1.0, "victim stays low: {v_peak}");
    assert!(out.peak_noise > 0.05, "aggressors made noise");
}

#[test]
fn board_impedance_shows_decap_in_frequency_domain() {
    // AC view of the co-simulation netlist: adding a decap lowers the
    // board impedance seen at the chip around the decap's effective band.
    let sel = NodeSelection::PortsAndGrid { stride: 3 };
    let impedance_at_chip = |spec: &BoardSpec, f: f64| -> f64 {
        let extracted = {
            let mut plane = spec.plane.clone();
            plane = plane.with_port("VRM", spec.supply_location.x, spec.supply_location.y);
            for chip in &spec.chips {
                plane = plane.with_port(
                    format!("{}_vcc", chip.name),
                    chip.location.x,
                    chip.location.y,
                );
            }
            for (k, d) in spec.decaps.iter().enumerate() {
                plane = plane.with_port(format!("decap{k}"), d.location.x, d.location.y);
            }
            plane.extract(&sel).expect("extractable")
        };
        let eq = extracted.equivalent();
        let mut ckt = Circuit::new();
        let nodes = eq.to_circuit_with(&mut ckt, "pg_", Realization::Passive);
        // Terminate the VRM port with the supply path.
        let vrm = nodes[eq.port_node(0)];
        let mid = ckt.new_node();
        ckt.resistor(vrm, mid, 0.01);
        ckt.inductor(mid, Circuit::GND, 10e-9);
        // Attach the decaps.
        for (k, d) in spec.decaps.iter().enumerate() {
            let node = nodes[eq.port_node(1 + spec.chips.len() + k)];
            ckt.decoupling_cap(node, Circuit::GND, d.c, d.esr, d.esl);
        }
        let chip_node = nodes[eq.port_node(1)];
        ckt.impedance_matrix(f, &[chip_node]).expect("solvable")[(0, 0)].norm()
    };
    let bare = board();
    let decapped = board().with_decap(DecapSpec::ceramic_100nf(Point::new(mm(36.0), mm(28.0))));
    // Around 10–30 MHz the 100 nF cap dominates the board impedance.
    let f = 20e6;
    let z_bare = impedance_at_chip(&bare, f);
    let z_dec = impedance_at_chip(&decapped, f);
    assert!(
        z_dec < 0.5 * z_bare,
        "decap lowers |Z| at {f:.0e} Hz: {z_dec:.4} vs {z_bare:.4}"
    );
}

#[test]
fn partition_counts_scale_with_board_contents() {
    let small = board()
        .build(&NodeSelection::PortsOnly, 1)
        .expect("buildable");
    let big = board()
        .with_chip(ChipSpec::cmos("U2", Point::new(mm(10.0), mm(30.0)), 8))
        .with_decap(DecapSpec::ceramic_100nf(Point::new(mm(25.0), mm(20.0))))
        .build(&NodeSelection::PortsOnly, 1)
        .expect("buildable");
    assert_eq!(small.partition().devices, 4);
    assert_eq!(big.partition().devices, 12);
    assert_eq!(big.partition().packages, 4);
    assert!(big.partition().pdn_nodes > small.partition().pdn_nodes);
}

#[test]
fn plane_spec_ports_precede_the_board_ports() {
    // A port on the plane spec at S and an unpopulated decap site at S
    // retain the same cells; only their place in the port table differs
    // (plane ports come first, sites last). Wiring must find the supply
    // and the chip behind the plane port, so both boards run the same
    // netlist.
    let s = Point::new(mm(20.0), mm(12.0));
    let mut sensed = board();
    sensed.plane = sensed.plane.with_port("sense", s.x, s.y);
    let sited = board().with_decap_site(s);
    for sel in [
        NodeSelection::PortsOnly,
        NodeSelection::PortsAndGrid { stride: 3 },
    ] {
        let run = |b: &BoardSpec| {
            b.build(&sel, 4)
                .expect("buildable")
                .run(10e-9, 0.1e-9)
                .expect("runnable")
        };
        assert_eq!(run(&sensed), run(&sited), "{sel:?}");
    }
}
