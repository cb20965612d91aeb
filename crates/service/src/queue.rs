//! The asynchronous analysis job queue.
//!
//! [`JobQueue`] owns a pool of worker threads (the count given to
//! [`JobQueue::with_workers`]) draining per-client job queues through a
//! deficit-round-robin scheduler, so one client's scenario flood cannot
//! starve another's single job. Every job routes its extraction through
//! the shared [`ExtractionCache`]: a warm board skips the mesh → BEM →
//! reduction flow entirely, and K concurrent jobs on one cold board
//! block on a single extraction.
//!
//! Submitting returns a [`JobId`] and a channel of [`JobEvent`]s —
//! `Queued`, then exactly one of `ExtractionCacheHit` / ­`Miss`, then
//! `Progress` lines, then `Done` or `Failed`. [`JobQueue::submit_to`]
//! sends them into a caller's channel instead, so one consumer can follow
//! many jobs. Malformed requests (empty scenario/count/candidate lists)
//! are rejected *at submission*, before any queueing or extraction.
//! The event stream is the job's record: the cache event names the tier
//! that served it, and the `Queued` → cache event → `Done` arrival times
//! split its queue wait from its run time.
//!
//! # Fairness
//!
//! Clients are visited round-robin; each visit credits the client's
//! deficit counter with a fixed quantum (4), and its head job is
//! dispatched once the deficit covers the job's cost — the number of
//! scenarios it will simulate. Cheap jobs from a new client therefore
//! overtake the backlog of a client that queued many expensive ones,
//! while the long-run share of simulation work stays proportional across
//! busy clients.

use crate::store::{CacheOutcome, ExtractionCache};
use pdn_core::{
    optimize_decaps_with_batch, BoardSpec, DecapPlan, DecapSpec, OptimizeSettings, Scenario,
    ScenarioBatch, SsnOutcome,
};
use pdn_extract::NodeSelection;
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Deficit credited per round-robin visit, in scenario-count units.
const QUANTUM: usize = 4;

/// Opaque job handle, unique within one [`JobQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// An analysis to run against a board.
#[derive(Debug, Clone)]
pub enum AnalysisRequest {
    /// [`pdn_core::cosim::ssn_switching_sweep`]: peak noise vs. number of
    /// switching drivers.
    SwitchingSweep {
        /// The board to analyze.
        board: BoardSpec,
        /// Retained-node policy for the extraction.
        selection: NodeSelection,
        /// Switching-driver counts to sweep (non-empty).
        counts: Vec<usize>,
        /// Transient duration (s).
        t_stop: f64,
        /// Transient time step (s).
        dt: f64,
    },
    /// One transient run with `switching` drivers active.
    Transient {
        /// The board to analyze.
        board: BoardSpec,
        /// Retained-node policy for the extraction.
        selection: NodeSelection,
        /// Number of switching drivers per chip.
        switching: usize,
        /// Transient duration (s).
        t_stop: f64,
        /// Transient time step (s).
        dt: f64,
    },
    /// A [`ScenarioBatch`] run over an explicit scenario list.
    Scenarios {
        /// The board to analyze.
        board: BoardSpec,
        /// Retained-node policy for the extraction.
        selection: NodeSelection,
        /// The scenarios to wire and simulate (non-empty).
        scenarios: Vec<Scenario>,
        /// Transient duration (s).
        t_stop: f64,
        /// Transient time step (s).
        dt: f64,
    },
    /// Greedy decap placement ([`pdn_core::optimize_decaps`]).
    OptimizeDecaps {
        /// The board to optimize.
        board: BoardSpec,
        /// Candidate capacitors (non-empty, distinct sites).
        candidates: Vec<DecapSpec>,
        /// Trial settings (includes the node selection).
        settings: OptimizeSettings,
    },
}

impl AnalysisRequest {
    /// Scheduling cost in scenario-count units (what one deficit unit
    /// pays for).
    fn cost(&self) -> usize {
        match self {
            AnalysisRequest::SwitchingSweep { counts, .. } => counts.len().max(1),
            AnalysisRequest::Transient { .. } => 1,
            AnalysisRequest::Scenarios { scenarios, .. } => scenarios.len().max(1),
            AnalysisRequest::OptimizeDecaps { candidates, .. } => candidates.len().max(1),
        }
    }

    /// Submission-time validation: reject malformed requests before they
    /// queue (and long before any extraction could start).
    fn validate(&self) -> Result<(), String> {
        match self {
            AnalysisRequest::SwitchingSweep { counts, .. } if counts.is_empty() => {
                Err("switching sweep needs at least one driver count; got an empty list".into())
            }
            AnalysisRequest::Scenarios { scenarios, .. } if scenarios.is_empty() => {
                Err("scenario list is empty; a batch needs at least one scenario".into())
            }
            AnalysisRequest::OptimizeDecaps { candidates, .. } if candidates.is_empty() => {
                Err("no candidate decap sites provided".into())
            }
            _ => Ok(()),
        }
    }
}

/// A finished job's payload, matching the request variant.
#[derive(Debug, Clone)]
pub enum AnalysisResult {
    /// `(driver count, peak noise V)` rows.
    Sweep(Vec<(usize, f64)>),
    /// The single transient outcome.
    Transient(Box<SsnOutcome>),
    /// One outcome per scenario, in request order.
    Scenarios(Vec<SsnOutcome>),
    /// The greedy placement plan.
    Decaps(DecapPlan),
}

/// Streamed lifecycle of a job.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// Accepted and queued under `client`.
    Queued {
        /// The job.
        job: JobId,
        /// Fair-queueing client identity it was filed under.
        client: String,
    },
    /// The board's extraction was served from a cache tier — no BEM
    /// assembly or factorization ran for this job.
    ExtractionCacheHit {
        /// The job.
        job: JobId,
        /// Which tier: memory, disk, or coalesced onto a concurrent
        /// extraction.
        tier: CacheOutcome,
    },
    /// The board was cold; this job performed the extraction (and warmed
    /// the cache).
    ExtractionCacheMiss {
        /// The job.
        job: JobId,
    },
    /// A coarse stage boundary.
    Progress {
        /// The job.
        job: JobId,
        /// Human-readable stage, e.g. `"simulating 5 scenarios"`.
        stage: String,
    },
    /// Finished successfully.
    Done {
        /// The job.
        job: JobId,
        /// The analysis payload.
        result: AnalysisResult,
    },
    /// Finished with an error.
    Failed {
        /// The job.
        job: JobId,
        /// Rendered error chain.
        error: String,
    },
}

impl JobEvent {
    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Queued { job, .. }
            | JobEvent::ExtractionCacheHit { job, .. }
            | JobEvent::ExtractionCacheMiss { job }
            | JobEvent::Progress { job, .. }
            | JobEvent::Done { job, .. }
            | JobEvent::Failed { job, .. } => *job,
        }
    }
}

/// Rejection at [`JobQueue::submit`] time.
#[derive(Debug)]
pub enum SubmitError {
    /// The request is malformed (see the message); nothing was queued.
    InvalidInput(String),
    /// The queue is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::InvalidInput(msg) => write!(f, "invalid job: {msg}"),
            SubmitError::ShuttingDown => write!(f, "job queue is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Job {
    id: JobId,
    request: AnalysisRequest,
    /// Delivers one event to the submitter's channel.
    events: Box<dyn Fn(JobEvent) + Send>,
}

struct ClientQueue {
    name: String,
    deficit: usize,
    jobs: VecDeque<Job>,
}

struct QueueState {
    clients: Vec<ClientQueue>,
    /// Round-robin scan start.
    cursor: usize,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    cache: Arc<ExtractionCache>,
    state: Mutex<QueueState>,
    wake: Condvar,
}

/// The job server: worker threads + per-client fair queues + the shared
/// extraction cache.
pub struct JobQueue {
    inner: Arc<Inner>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// A queue with an explicit worker count (at least 1).
    pub fn with_workers(cache: Arc<ExtractionCache>, workers: usize) -> Self {
        let inner = Arc::new(Inner {
            cache,
            state: Mutex::new(QueueState {
                clients: Vec::new(),
                cursor: 0,
                next_id: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|k| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("pdn-service-worker-{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        JobQueue {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The shared extraction cache.
    pub fn cache(&self) -> &Arc<ExtractionCache> {
        &self.inner.cache
    }

    /// Validates and enqueues a job under `client`'s fair queue,
    /// returning its id and event stream. The stream starts with
    /// [`JobEvent::Queued`] and always terminates with `Done` or
    /// `Failed`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidInput`] for malformed requests (rejected
    /// before anything queues or extracts) and
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(
        &self,
        client: &str,
        request: AnalysisRequest,
    ) -> Result<(JobId, Receiver<JobEvent>), SubmitError> {
        let (tx, rx) = mpsc::channel();
        let id = self.submit_to(client, request, tx)?;
        Ok((id, rx))
    }

    /// [`submit`](Self::submit) into the caller's channel: the job's
    /// events arrive on `events` (converted by `From<JobEvent>`), so one
    /// receiver can follow every job of a connection without a thread per
    /// job. `Queued` is sent before this returns and before any worker
    /// can start the job; events of one job arrive in lifecycle order.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit); nothing is sent on rejection.
    pub fn submit_to<T: From<JobEvent> + Send + 'static>(
        &self,
        client: &str,
        request: AnalysisRequest,
        events: Sender<T>,
    ) -> Result<JobId, SubmitError> {
        request.validate().map_err(SubmitError::InvalidInput)?;
        let id = {
            let mut st = self.inner.state.lock().unwrap();
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let id = JobId(st.next_id);
            st.next_id += 1;
            let _ = events.send(T::from(JobEvent::Queued {
                job: id,
                client: client.to_string(),
            }));
            let job = Job {
                id,
                request,
                events: Box::new(move |event| {
                    let _ = events.send(T::from(event));
                }),
            };
            match st.clients.iter_mut().find(|c| c.name == client) {
                Some(q) => q.jobs.push_back(job),
                None => st.clients.push(ClientQueue {
                    name: client.to_string(),
                    deficit: 0,
                    jobs: VecDeque::from([job]),
                }),
            }
            id
        };
        self.inner.wake.notify_one();
        Ok(id)
    }

    /// Stops accepting jobs, drains what is queued, and joins the
    /// workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.wake.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One DRR dispatch: scan clients round-robin from the cursor, crediting
/// each non-empty queue a quantum per visit and popping the first head
/// job whose cost is covered. Loops as long as any queue is non-empty, so
/// it returns `None` only when there is genuinely nothing to do.
fn drr_pop(st: &mut QueueState) -> Option<Job> {
    while st.clients.iter().any(|c| !c.jobs.is_empty()) {
        let n = st.clients.len();
        for step in 0..n {
            let i = (st.cursor + step) % n;
            let q = &mut st.clients[i];
            let Some(head_cost) = q.jobs.front().map(|j| j.request.cost()) else {
                continue;
            };
            q.deficit += QUANTUM;
            if q.deficit >= head_cost {
                q.deficit -= head_cost;
                let job = q.jobs.pop_front().expect("non-empty queue has a head");
                if q.jobs.is_empty() {
                    q.deficit = 0;
                }
                st.cursor = (i + 1) % n;
                return Some(job);
            }
        }
    }
    None
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(job) = drr_pop(&mut st) {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.wake.wait(st).unwrap();
            }
        };
        run_job(inner, job);
    }
}

/// Renders an error chain as `outer: cause: cause`.
fn error_chain(e: &dyn std::error::Error) -> String {
    let mut msg = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        let rendered = s.to_string();
        // Many layers already embed their source in Display; skip dups.
        if !msg.contains(&rendered) {
            msg.push_str(": ");
            msg.push_str(&rendered);
        }
        src = s.source();
    }
    msg
}

fn run_job(inner: &Inner, job: Job) {
    let send = &job.events;
    match execute(inner, &job, send) {
        Ok(result) => send(JobEvent::Done {
            job: job.id,
            result,
        }),
        Err(error) => send(JobEvent::Failed { job: job.id, error }),
    }
}

/// Runs the job's analysis through the cache, emitting cache and
/// progress events.
fn execute(inner: &Inner, job: &Job, send: &dyn Fn(JobEvent)) -> Result<AnalysisResult, String> {
    // Resolve the board whose extraction the job needs. For decap
    // optimization that is the search board with every candidate ported.
    let (mut board, selection) = match &job.request {
        AnalysisRequest::SwitchingSweep {
            board, selection, ..
        }
        | AnalysisRequest::Transient {
            board, selection, ..
        }
        | AnalysisRequest::Scenarios {
            board, selection, ..
        } => (board.clone(), *selection),
        AnalysisRequest::OptimizeDecaps {
            board,
            candidates,
            settings,
        } => {
            let base =
                pdn_core::decap_search_board(board, candidates).map_err(|e| error_chain(&e))?;
            (base, settings.selection)
        }
    };
    // Pin the site plan so the batch board below matches the port
    // layout the cache extracted (the cache pins identically).
    board.decap_sites = board.site_plan();
    let (model, cache_outcome) = inner
        .cache
        .get_or_extract(&board, &selection)
        .map_err(|e| error_chain(&e))?;
    match cache_outcome {
        CacheOutcome::Extracted => send(JobEvent::ExtractionCacheMiss { job: job.id }),
        tier => send(JobEvent::ExtractionCacheHit { job: job.id, tier }),
    }
    let batch = ScenarioBatch::with_model(&board, model).map_err(|e| error_chain(&e))?;

    let result = match &job.request {
        AnalysisRequest::SwitchingSweep {
            counts, t_stop, dt, ..
        } => {
            send(JobEvent::Progress {
                job: job.id,
                stage: format!("simulating {} driver counts", counts.len()),
            });
            let scenarios: Vec<Scenario> = counts.iter().map(|&n| Scenario::switching(n)).collect();
            let outs = batch
                .run(&scenarios, *t_stop, *dt)
                .map_err(|e| error_chain(&e))?;
            AnalysisResult::Sweep(
                counts
                    .iter()
                    .zip(outs)
                    .map(|(&n, o)| (n, o.peak_noise))
                    .collect(),
            )
        }
        AnalysisRequest::Transient {
            switching,
            t_stop,
            dt,
            ..
        } => {
            send(JobEvent::Progress {
                job: job.id,
                stage: format!("simulating transient with {switching} drivers"),
            });
            let outs = batch
                .run(&[Scenario::switching(*switching)], *t_stop, *dt)
                .map_err(|e| error_chain(&e))?;
            let out = outs.into_iter().next().expect("one scenario, one outcome");
            AnalysisResult::Transient(Box::new(out))
        }
        AnalysisRequest::Scenarios {
            scenarios,
            t_stop,
            dt,
            ..
        } => {
            send(JobEvent::Progress {
                job: job.id,
                stage: format!("simulating {} scenarios", scenarios.len()),
            });
            let outs = batch
                .run(scenarios, *t_stop, *dt)
                .map_err(|e| error_chain(&e))?;
            AnalysisResult::Scenarios(outs)
        }
        AnalysisRequest::OptimizeDecaps {
            candidates,
            settings,
            ..
        } => {
            send(JobEvent::Progress {
                job: job.id,
                stage: format!("greedy search over {} candidates", candidates.len()),
            });
            let plan = optimize_decaps_with_batch(&batch, candidates, settings)
                .map_err(|e| error_chain(&e))?;
            AnalysisResult::Decaps(plan)
        }
    };
    Ok(result)
}
