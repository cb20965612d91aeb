//! Line-delimited TCP frontend to a [`JobQueue`].
//!
//! The wire format is deliberately primitive — one ASCII line per
//! request, one per event — so `nc` is a sufficient client and no
//! serialization of [`pdn_core::BoardSpec`] ever crosses the network.
//! Boards are referenced by the *named seed geometries* in
//! [`pdn_core::boards`] plus a mesh pitch; anything fancier should use
//! the in-process [`JobQueue`] API directly.
//!
//! ```text
//! → SWEEP <board> <cell_inch> <selection> <count,count,...> <t_stop> <dt>
//! → TRANSIENT <board> <cell_inch> <selection> <switching> <t_stop> <dt>
//! → STATS
//! → QUIT
//! ← JOB <id>                          (submission accepted)
//! ← EVENT <id> QUEUED <client>
//! ← EVENT <id> CACHE_HIT <tier>  |  EVENT <id> CACHE_MISS
//! ← EVENT <id> PROGRESS <stage>
//! ← EVENT <id> DONE <payload>
//! ← EVENT <id> FAILED <message>
//! ← STATS <counters>
//! ← ERR <message>                     (request never became a job)
//! ```
//!
//! `<board>` ∈ `ssn_study_a` | `post_layout_study_b`; `<selection>` ∈
//! `ports` | `grid:<stride>` | `all`. A `SWEEP` `DONE` payload is
//! `count:peak_noise` pairs. Each connection is one fair-queueing client
//! (keyed by peer address), so a busy neighbor cannot starve you.
//!
//! A request line longer than 4096 bytes is answered with
//! `ERR request line exceeds 4096 bytes` and the connection is closed.
//!
//! Each connection has two threads. The reader parses requests and
//! submits jobs with [`JobQueue::submit_to`] into one per-connection
//! channel; the writer owns the socket's write half and drains that
//! channel, writing every line whole (several queued lines may share one
//! write) on a `TCP_NODELAY` socket. A line split over two writes would
//! leave its tail behind Nagle's algorithm until the client's delayed ACK,
//! about 40 ms per reply on Linux.

use crate::queue::{AnalysisRequest, JobEvent, JobQueue};
use crate::store::CacheOutcome;
use pdn_core::{boards, BoardSpec};
use pdn_extract::NodeSelection;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;

/// Longest accepted request line in bytes, excluding its newline. The
/// longest valid request is under 100 bytes; the cap stops a peer from
/// growing the read buffer without limit.
const MAX_LINE: usize = 4096;

/// A listening analysis server. Dropping it stops accepting connections
/// (jobs already queued still drain through the [`JobQueue`]).
pub struct PdnServer {
    queue: Arc<JobQueue>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl PdnServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections, each served by a reader and a writer thread against
    /// `queue`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, queue: Arc<JobQueue>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("pdn-service-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let queue = Arc::clone(&queue);
                        let _ = thread::Builder::new()
                            .name("pdn-service-conn".into())
                            .spawn(move || serve_connection(stream, &queue));
                    }
                })?
        };
        Ok(PdnServer {
            queue,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The queue this server feeds.
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }
}

impl Drop for PdnServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Errors rendered to the client as `ERR <message>`.
fn parse_board(name: &str, cell_inch: f64) -> Result<BoardSpec, String> {
    match name {
        "ssn_study_a" => boards::ssn_study_a_board(cell_inch)
            .map_err(|e| format!("ssn_study_a at cell {cell_inch}in: {e}")),
        "post_layout_study_b" => boards::post_layout_study_b_board(cell_inch)
            .map_err(|e| format!("post_layout_study_b at cell {cell_inch}in: {e}")),
        other => Err(format!(
            "unknown board '{other}' (expected ssn_study_a or post_layout_study_b)"
        )),
    }
}

fn parse_selection(s: &str) -> Result<NodeSelection, String> {
    match s {
        "ports" => Ok(NodeSelection::PortsOnly),
        "all" => Ok(NodeSelection::All),
        _ => match s.strip_prefix("grid:") {
            Some(stride) => stride
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(|stride| NodeSelection::PortsAndGrid { stride })
                .ok_or_else(|| format!("bad grid stride in '{s}'")),
            None => Err(format!(
                "unknown selection '{s}' (expected ports, grid:<stride>, or all)"
            )),
        },
    }
}

fn parse_f64(what: &str, s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad {what} '{s}'"))
}

/// Parses one request line into an [`AnalysisRequest`].
fn parse_request(line: &str) -> Result<AnalysisRequest, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["SWEEP", board, cell, selection, counts, t_stop, dt] => {
            let cell_inch = parse_f64("cell size", cell)?;
            let counts = counts
                .split(',')
                .filter(|c| !c.is_empty())
                .map(|c| c.parse::<usize>().map_err(|_| format!("bad count '{c}'")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(AnalysisRequest::SwitchingSweep {
                board: parse_board(board, cell_inch)?,
                selection: parse_selection(selection)?,
                counts,
                t_stop: parse_f64("t_stop", t_stop)?,
                dt: parse_f64("dt", dt)?,
            })
        }
        ["TRANSIENT", board, cell, selection, switching, t_stop, dt] => {
            let cell_inch = parse_f64("cell size", cell)?;
            Ok(AnalysisRequest::Transient {
                board: parse_board(board, cell_inch)?,
                selection: parse_selection(selection)?,
                switching: switching
                    .parse()
                    .map_err(|_| format!("bad switching count '{switching}'"))?,
                t_stop: parse_f64("t_stop", t_stop)?,
                dt: parse_f64("dt", dt)?,
            })
        }
        [] => Err("empty request".into()),
        [verb, ..] => Err(format!(
            "unknown request '{verb}' (expected SWEEP, TRANSIENT, STATS, or QUIT)"
        )),
    }
}

/// What the writer thread sends: job events, and the reader's replies
/// (`STATS …`, `ERR …`) in request order.
enum Outgoing {
    Event(JobEvent),
    Reply(String),
}

impl From<JobEvent> for Outgoing {
    fn from(event: JobEvent) -> Self {
        Outgoing::Event(event)
    }
}

/// Appends `out` to `buf` as whole protocol lines.
fn render(out: &Outgoing, buf: &mut String) {
    match out {
        Outgoing::Event(event) => buf.push_str(&render_event(event)),
        Outgoing::Reply(line) => buf.push_str(line),
    }
    buf.push('\n');
}

/// A job's `Queued` event renders as two lines, `JOB <id>` and its
/// `QUEUED` line, so `JOB` is always the job's first line.
fn render_event(event: &JobEvent) -> String {
    match event {
        JobEvent::Queued { job, client } => {
            format!("JOB {}\nEVENT {} QUEUED {client}", job.0, job.0)
        }
        JobEvent::ExtractionCacheHit { job, tier } => {
            let tier = match tier {
                CacheOutcome::MemoryHit => "memory",
                CacheOutcome::DiskHit => "disk",
                CacheOutcome::Coalesced => "coalesced",
                CacheOutcome::Extracted => "extracted",
            };
            format!("EVENT {} CACHE_HIT {tier}", job.0)
        }
        JobEvent::ExtractionCacheMiss { job } => format!("EVENT {} CACHE_MISS", job.0),
        JobEvent::Progress { job, stage } => format!("EVENT {} PROGRESS {stage}", job.0),
        JobEvent::Done { job, result } => {
            let payload = match result {
                crate::queue::AnalysisResult::Sweep(rows) => rows
                    .iter()
                    .map(|(n, v)| format!("{n}:{v:.6e}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                crate::queue::AnalysisResult::Transient(out) => {
                    format!("peak_noise {:.6e}", out.peak_noise)
                }
                crate::queue::AnalysisResult::Scenarios(outs) => outs
                    .iter()
                    .map(|o| format!("{:.6e}", o.peak_noise))
                    .collect::<Vec<_>>()
                    .join(" "),
                crate::queue::AnalysisResult::Decaps(plan) => format!(
                    "placed {} final_noise {:.6e}",
                    plan.chosen.len(),
                    plan.final_noise()
                ),
            };
            format!("EVENT {} DONE {payload}", job.0)
        }
        JobEvent::Failed { job, error } => {
            format!("EVENT {} FAILED {}", job.0, error.replace('\n', " "))
        }
    }
}

/// Serves one connection: spawns its writer, reads requests until
/// `QUIT`, end of stream or an oversized line, then waits for the writer
/// to deliver every in-flight job's remaining events.
fn serve_connection(stream: TcpStream, queue: &JobQueue) {
    let client = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel();
    let Ok(writer) = thread::Builder::new()
        .name("pdn-service-writer".into())
        .spawn(move || write_lines(write_half, &rx))
    else {
        return;
    };
    read_requests(BufReader::new(stream), &client, queue, &tx);
    // The writer stops once this sender and every in-flight job's clone
    // of it are gone, i.e. after the last `DONE`/`FAILED` line.
    drop(tx);
    let _ = writer.join();
}

/// The writer thread: drains `lines` into the socket, one `write_all`
/// per batch of whole lines, until every sender is gone or the peer stops
/// reading. Then shuts the socket down, which also ends a reader still
/// blocked on a dead peer.
fn write_lines(mut stream: TcpStream, lines: &Receiver<Outgoing>) {
    let _ = stream.set_nodelay(true);
    let mut buf = String::new();
    while let Ok(first) = lines.recv() {
        buf.clear();
        render(&first, &mut buf);
        for next in lines.try_iter() {
            render(&next, &mut buf);
        }
        if stream.write_all(buf.as_bytes()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The reader: one request per line, at most [`MAX_LINE`] bytes each.
/// Replies and job events go to the writer through `out`, in order.
fn read_requests(mut reader: impl BufRead, client: &str, queue: &JobQueue, out: &Sender<Outgoing>) {
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() > MAX_LINE && line.last() != Some(&b'\n') {
            let _ = out.send(Outgoing::Reply(format!(
                "ERR request line exceeds {MAX_LINE} bytes"
            )));
            return;
        }
        let text = String::from_utf8_lossy(&line);
        let reply = match text.trim() {
            "" => continue,
            "QUIT" => return,
            "STATS" => {
                let s = queue.cache().stats();
                format!(
                    "STATS memory_hits {} disk_hits {} extractions {} coalesced {} \
                     load_failures {}",
                    s.memory_hits, s.disk_hits, s.extractions, s.coalesced, s.load_failures
                )
            }
            request => match parse_request(request) {
                Err(msg) => format!("ERR {msg}"),
                // `JOB <id>` is rendered by the writer from the job's
                // `Queued` event.
                Ok(request) => match queue.submit_to(client, request, out.clone()) {
                    Ok(_) => continue,
                    Err(e) => format!("ERR {e}"),
                },
            },
        };
        if out.send(Outgoing::Reply(reply)).is_err() {
            return;
        }
    }
}
