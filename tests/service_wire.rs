//! `PdnServer` over real TCP: the line order of each job, the `STATS`
//! counters, `ERR` replies for malformed and oversized lines, concurrent
//! clients, in-flight jobs surviving `QUIT`, and the warm round-trip time.

use pdn_service::{ExtractionCache, JobQueue, PdnServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The tests in this binary run one at a time, so the round-trip timing
/// never shares the CPU with a neighbouring test's extraction.
static SERIAL: Mutex<()> = Mutex::new(());

/// A warm study-A sweep at a coarse 1 in pitch: a few milliseconds of
/// wiring and simulation.
const SWEEP: &str = "SWEEP ssn_study_a 1.0 ports 1,2 2e-9 0.1e-9";
const TRANSIENT: &str = "TRANSIENT ssn_study_a 1.0 ports 2 2e-9 0.1e-9";

/// A server on a fresh cache directory, removed on drop.
struct Service {
    server: PdnServer,
    root: PathBuf,
}

impl Service {
    fn start(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("pdn-service-wire-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let cache = Arc::new(ExtractionCache::at(&root, 4));
        let queue = Arc::new(JobQueue::with_workers(cache, 2));
        let server = PdnServer::bind("127.0.0.1:0", queue).expect("bind a loopback port");
        Service { server, root }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.server.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        // A stuck server fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// The address the server files this client's jobs under.
    fn name(&self) -> String {
        self.writer.local_addr().unwrap().to_string()
    }

    fn send(&mut self, text: &str) {
        self.writer.write_all(text.as_bytes()).unwrap();
    }

    /// The next line, or `None` once the server has closed the connection.
    fn next_line(&mut self) -> Option<String> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                assert!(buf.ends_with('\n'), "partial line '{buf}'");
                Some(buf.trim_end().to_string())
            }
        }
    }

    fn line(&mut self) -> String {
        self.next_line().expect("server closed the connection")
    }

    /// Reads one job's lines, from `JOB` through `DONE` or `FAILED`.
    fn read_job(&mut self) -> Vec<String> {
        let mut lines = vec![self.line()];
        while !lines
            .last()
            .is_some_and(|l| l.contains(" DONE ") || l.contains(" FAILED "))
        {
            lines.push(self.line());
        }
        lines
    }

    fn job(&mut self, request: &str) -> Vec<String> {
        self.send(&format!("{request}\n"));
        self.read_job()
    }
}

/// Checks a job's line order — `JOB`, `QUEUED`, `CACHE_*`, `PROGRESS`,
/// `DONE` — and returns the `DONE` payload.
fn check_job(lines: &[String], client: &str, cache: &str) -> String {
    let id = lines[0]
        .strip_prefix("JOB ")
        .unwrap_or_else(|| panic!("first line of a job is JOB: {lines:?}"));
    assert!(id.parse::<u64>().is_ok(), "{lines:?}");
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert_eq!(lines[1], format!("EVENT {id} QUEUED {client}"));
    assert_eq!(lines[2], format!("EVENT {id} {cache}"));
    assert!(
        lines[3].starts_with(&format!("EVENT {id} PROGRESS simulating ")),
        "{lines:?}"
    );
    lines[4]
        .strip_prefix(&format!("EVENT {id} DONE "))
        .unwrap_or_else(|| panic!("last line of a job is DONE: {lines:?}"))
        .to_string()
}

fn stats(client: &mut Client) -> String {
    client.send("STATS\n");
    client.line()
}

#[test]
fn each_job_streams_its_lines_in_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("order");
    let mut c = service.connect();
    let name = c.name();

    let cold = check_job(&c.job(SWEEP), &name, "CACHE_MISS");
    let warm = check_job(&c.job(SWEEP), &name, "CACHE_HIT memory");
    assert_eq!(cold, warm, "a warm answer repeats the cold one");
    let counts: Vec<&str> = warm
        .split(' ')
        .map(|pair| pair.split_once(':').expect("count:peak_noise").0)
        .collect();
    assert_eq!(counts, ["1", "2"]);

    let transient = check_job(&c.job(TRANSIENT), &name, "CACHE_HIT memory");
    let peak = transient
        .strip_prefix("peak_noise ")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("TRANSIENT payload '{transient}'"));
    assert!(peak.is_finite() && peak > 0.0);
}

#[test]
fn stats_counts_extractions_and_hits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("stats");
    let mut c = service.connect();
    let line = |hits, extractions| {
        format!(
            "STATS memory_hits {hits} disk_hits 0 extractions {extractions} coalesced 0 \
             load_failures 0"
        )
    };
    assert_eq!(stats(&mut c), line(0, 0));
    c.job(SWEEP);
    assert_eq!(stats(&mut c), line(0, 1));
    c.job(SWEEP);
    c.job(TRANSIENT);
    assert_eq!(stats(&mut c), line(2, 1));
}

#[test]
fn malformed_and_oversized_lines_get_err() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("err");
    let mut c = service.connect();
    for (request, reply) in [
        (
            "FROB",
            "ERR unknown request 'FROB' (expected SWEEP, TRANSIENT, STATS, or QUIT)",
        ),
        (
            "SWEEP nowhere 1.0 ports 1 2e-9 0.1e-9",
            "ERR unknown board 'nowhere' (expected ssn_study_a or post_layout_study_b)",
        ),
        (
            "SWEEP ssn_study_a 1.0 ports , 2e-9 0.1e-9",
            "ERR invalid job: switching sweep needs at least one driver count; \
             got an empty list",
        ),
    ] {
        c.send(&format!("{request}\n"));
        assert_eq!(c.line(), reply, "request '{request}'");
    }
    c.writer.write_all(b"\xff\xfe\n").unwrap();
    assert!(
        c.line().starts_with("ERR unknown request"),
        "non-UTF-8 line"
    );
    // A line of exactly the cap is still read as a request.
    c.send(&format!("{:<4096}\n", "STATS"));
    assert_eq!(
        c.line(),
        "STATS memory_hits 0 disk_hits 0 extractions 0 coalesced 0 load_failures 0"
    );

    c.send(&format!("{}\n", "A".repeat(4097)));
    assert_eq!(c.line(), "ERR request line exceeds 4096 bytes");
    assert_eq!(c.next_line(), None, "the connection is closed");
}

#[test]
fn two_clients_are_served_at_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("two");
    service.connect().job(SWEEP);
    let mut clients = [service.connect(), service.connect()];
    let names: Vec<String> = clients.iter().map(Client::name).collect();
    assert_ne!(names[0], names[1]);
    // Both requests are on the wire before either client reads a reply.
    let sent = Barrier::new(clients.len());
    let jobs: Vec<Vec<String>> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip([SWEEP, TRANSIENT])
            .map(|(c, request)| {
                let sent = &sent;
                s.spawn(move || {
                    c.send(&format!("{request}\n"));
                    sent.wait();
                    c.read_job()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (lines, name) in jobs.iter().zip(&names) {
        check_job(lines, name, "CACHE_HIT memory");
    }
    assert_ne!(jobs[0][0], jobs[1][0], "distinct job ids");
}

#[test]
fn quit_still_delivers_in_flight_jobs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("quit");
    let mut c = service.connect();
    let name = c.name();
    c.send(&format!("{SWEEP}\nQUIT\n"));
    check_job(&c.read_job(), &name, "CACHE_MISS");
    assert_eq!(c.next_line(), None, "closed after the last DONE");
}

/// Every reply line used to leave the server in two writes, so its tail
/// waited behind Nagle's algorithm for the client's delayed ACK (about
/// 40 ms on Linux). A warm job is a few milliseconds of work; its round
/// trip must stay well under that floor.
#[test]
fn warm_sweeps_round_trip_under_the_delayed_ack_floor() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = Service::start("warm");
    let mut c = service.connect();
    let name = c.name();
    c.job(SWEEP);
    let mut ms: Vec<f64> = (0..25)
        .map(|_| {
            let sent = Instant::now();
            let lines = c.job(SWEEP);
            let elapsed = sent.elapsed().as_secs_f64() * 1e3;
            check_job(&lines, &name, "CACHE_HIT memory");
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 20.0,
        "median warm round trip {median:.2} ms; sorted: {ms:.2?}"
    );
}
