//! The daemon: accepts JSONL requests over a Unix socket, batches them
//! into evaluation runs, and streams reports back.
//!
//! ## Architecture
//!
//! ```text
//! client ──connect──▶ reader thread ──push──▶ bounded queue ──pop──▶ eval workers
//!    ▲                                                                   │
//!    └────────────────────── response line (locked stream) ◀─────────────┘
//! ```
//!
//! - One reader thread per connection parses request lines and pushes
//!   evaluation jobs onto a **bounded queue**. A full queue blocks the
//!   reader — the client's socket fills and the sender stalls, which is
//!   the backpressure: the daemon never buffers unbounded work.
//! - A fixed pool of eval workers pops jobs and runs each through the
//!   same parallel driver `jmake-eval` uses, against **shared**
//!   config, object and preprocess caches, so repeated portfolios start
//!   warm. Caches are
//!   host-side only, so a served report is byte-identical to a cold local
//!   run (the CI gate diffs them).
//! - [`Request::Shutdown`] acknowledges, stops accepting connections and
//!   new jobs, **drains** every queued job (each still gets its
//!   response), persists the disk tier when `--cache-dir` is set, then
//!   exits.
//! - Per-client counters (requests, responses, errors) answer
//!   [`Request::Stats`] and are logged when the connection closes.
//! - A request line may hold at most [`MAX_REQUEST_LINE`] bytes. A longer
//!   one is answered with an error and its connection closed, so a
//!   client that never sends a newline cannot grow the daemon's memory.

use crate::protocol::{self, EvalRequest, Request, Response};
use jmake_bench::{build_context_with_driver, render_command};
use jmake_core::DriverOptions;
use jmake_faults::Faults;
use jmake_kbuild::{ConfigCache, DiskCache, ObjectCache, PreprocCache};
use jmake_synth::WorkloadProfile;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The longest request line the daemon reads, newline excluded: far
/// above the ~150 bytes a request takes.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Unix socket path to listen on. A stale file from an unclean exit
    /// is removed before binding.
    pub socket: PathBuf,
    /// Concurrent evaluations (each internally runs its requested number
    /// of parallel driver workers).
    pub parallel: usize,
    /// Bounded-queue capacity; readers block when it is full.
    pub queue_capacity: usize,
    /// Persistent cache directory: pre-loaded at startup, persisted at
    /// shutdown (same format as `jmake-eval --cache-dir`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            socket: PathBuf::from("jmake-serve.sock"),
            parallel: 2,
            queue_capacity: 8,
            cache_dir: None,
        }
    }
}

/// Per-connection counters, readable while the connection is live.
#[derive(Debug, Default)]
struct ClientStats {
    requests: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
}

/// One connected client: the write half (line-locked so concurrent eval
/// workers never interleave partial lines) plus its counters.
struct Client {
    id: u64,
    writer: Mutex<UnixStream>,
    stats: ClientStats,
}

impl Client {
    /// Write one response line and bump the matching counter. A client
    /// that hung up mid-evaluation is not an error worth more than a log
    /// line — the work itself stays valid (and cached).
    fn send(&self, response: &Response) {
        match response {
            Response::Error { .. } => self.stats.errors.fetch_add(1, Ordering::Relaxed),
            _ => self.stats.responses.fetch_add(1, Ordering::Relaxed),
        };
        let line = protocol::encode_response(response);
        let mut writer = self.writer.lock().expect("client writer poisoned");
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            eprintln!(
                "jmake-serve: client {}: response dropped (disconnected)",
                self.id
            );
        }
    }
}

/// One queued evaluation.
struct Job {
    client: Arc<Client>,
    eval: EvalRequest,
}

/// The bounded job queue. `push` blocks while full (backpressure),
/// `pop` blocks while empty; both wake up when draining starts, after
/// which pushes are refused and pops run the queue dry before `None`.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
    draining: AtomicBool,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
            draining: AtomicBool::new(false),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Enqueue, blocking while the queue is at capacity. `Err` when the
    /// server is draining and accepts no new work.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        while jobs.len() >= self.capacity {
            if self.is_draining() {
                return Err(job);
            }
            jobs = self.space.wait(jobs).expect("job queue poisoned");
        }
        if self.is_draining() {
            return Err(job);
        }
        jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while empty. `None` only once draining *and*
    /// empty — queued jobs always run to completion.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                self.space.notify_one();
                return Some(job);
            }
            if self.is_draining() {
                return None;
            }
            jobs = self.ready.wait(jobs).expect("job queue poisoned");
        }
    }

    /// Refuse new work and wake every blocked reader and worker.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// The evaluation engine: shared caches plus the driver plumbing. One per
/// daemon; every request runs against the same caches, so repeated
/// portfolios answer from warm state (reports are byte-identical either
/// way — the caches are host-side only).
struct Engine {
    objects: Arc<ObjectCache>,
    configs: Arc<ConfigCache>,
    preproc: Arc<PreprocCache>,
}

impl Engine {
    fn new() -> Engine {
        Engine {
            objects: Arc::new(ObjectCache::new()),
            configs: Arc::new(ConfigCache::new()),
            preproc: Arc::new(PreprocCache::new()),
        }
    }

    /// Run one evaluation and render the requested report section —
    /// exactly the bytes `jmake-eval` would print for the same
    /// parameters. With `fix`, the remediation pass replays the run
    /// against the daemon's warm caches; its JSON report is prepended to
    /// the rendered section and FIX lines land in the tables, matching
    /// `jmake-eval --fix COMMAND` byte for byte (the fix report is
    /// host-time free, so warm caches never change the bytes).
    fn evaluate(&self, req: &EvalRequest) -> Result<String, String> {
        let profile = WorkloadProfile {
            commits: req.commits,
            seed: req.seed,
            ..WorkloadProfile::default()
        };
        let driver = DriverOptions {
            workers: req.workers,
            jmake: jmake_core::Options {
                use_allmodconfig: req.allmodconfig,
                use_coverage_configs: req.coverage,
                ..jmake_core::Options::default()
            },
            object_cache_handle: Some(Arc::clone(&self.objects)),
            config_cache_handle: Some(Arc::clone(&self.configs)),
            preproc_cache_handle: Some(Arc::clone(&self.preproc)),
            ..DriverOptions::default()
        };
        let mut ctx = build_context_with_driver(&profile, &driver);
        let mut out = String::new();
        if req.fix {
            let fctx = jmake_fix::FixContext {
                configs: Arc::clone(&self.configs),
                objects: Some(Arc::clone(&self.objects)),
                preproc: Some(Arc::clone(&self.preproc)),
                ..jmake_fix::FixContext::default()
            };
            let fix = jmake_fix::remediate_with(&ctx.workload.repo, &ctx.run, &fctx);
            jmake_fix::annotate_run(&mut ctx.run, &fix);
            out.push_str(&fix.to_json());
        }
        let rendered = render_command(&ctx, &req.command)
            .ok_or_else(|| format!("unknown command {:?}", req.command))?;
        out.push_str(&rendered);
        Ok(out)
    }
}

/// Run the daemon until a shutdown request drains it. Returns once every
/// queued evaluation has been answered and (with a cache dir) the caches
/// are persisted.
pub fn serve(opts: &ServerOptions) -> io::Result<()> {
    // A stale socket file from an unclean exit would fail the bind.
    let _ = std::fs::remove_file(&opts.socket);
    let listener = UnixListener::bind(&opts.socket)?;
    let engine = Arc::new(Engine::new());
    let disk = match &opts.cache_dir {
        Some(dir) => {
            let disk = DiskCache::open(dir)?;
            let s = disk.load(
                &engine.objects,
                &engine.configs,
                &engine.preproc,
                &Faults::disabled(),
            )?;
            eprintln!(
                "jmake-serve: loaded {} object / {} config / {} preproc entries from {} ({} quarantined)",
                s.objects_loaded,
                s.configs_loaded,
                s.preproc_loaded,
                disk.root().display(),
                s.entries_quarantined,
            );
            Some(disk)
        }
        None => None,
    };
    let queue = Arc::new(Queue::new(opts.queue_capacity));
    let workers: Vec<_> = (0..opts.parallel.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    let response = match engine.evaluate(&job.eval) {
                        Ok(report) => Response::Report {
                            id: job.eval.id,
                            report,
                        },
                        Err(error) => Response::Error {
                            id: job.eval.id,
                            error,
                        },
                    };
                    job.client.send(&response);
                }
            })
        })
        .collect();

    eprintln!("jmake-serve: listening on {}", opts.socket.display());
    let mut next_client = 0u64;
    for stream in listener.incoming() {
        if queue.is_draining() {
            // Woken by the shutdown handler's self-connection.
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("jmake-serve: accept failed: {e}");
                continue;
            }
        };
        next_client += 1;
        let id = next_client;
        let queue = Arc::clone(&queue);
        let socket = opts.socket.clone();
        std::thread::spawn(move || {
            if let Err(e) = serve_client(stream, id, &queue, &socket) {
                eprintln!("jmake-serve: client {id}: {e}");
            }
        });
    }

    // Drain: workers finish every queued job, then see draining+empty.
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(disk) = &disk {
        match disk.store(&engine.objects, &engine.configs, &engine.preproc) {
            Ok(s) => eprintln!(
                "jmake-serve: persisted {} new object / {} new config / {} new preproc entries under {}",
                s.objects_stored,
                s.configs_stored,
                s.preproc_stored,
                disk.root().display(),
            ),
            Err(e) => eprintln!(
                "jmake-serve: WARNING: cannot persist cache dir {}: {e}",
                disk.root().display()
            ),
        }
    }
    let _ = std::fs::remove_file(&opts.socket);
    eprintln!("jmake-serve: drained and shut down");
    Ok(())
}

/// Read request lines from one connection until EOF or shutdown.
fn serve_client(
    stream: UnixStream,
    id: u64,
    queue: &Arc<Queue>,
    socket: &std::path::Path,
) -> io::Result<()> {
    let client = Arc::new(Client {
        id,
        writer: Mutex::new(stream.try_clone()?),
        stats: ClientStats::default(),
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // One byte past the cap tells an over-long line from a full one.
    let cap = MAX_REQUEST_LINE as u64 + 1;
    loop {
        buf.clear();
        if (&mut reader).take(cap).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_REQUEST_LINE {
            client.stats.requests.fetch_add(1, Ordering::Relaxed);
            client.send(&Response::Error {
                id: 0,
                error: format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing"),
            });
            break;
        }
        let line =
            std::str::from_utf8(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        client.stats.requests.fetch_add(1, Ordering::Relaxed);
        match protocol::decode_request(line) {
            Err(e) => client.send(&Response::Error {
                id: 0,
                error: format!("bad request: {e}"),
            }),
            Ok(Request::Stats) => client.send(&Response::Stats {
                requests: client.stats.requests.load(Ordering::Relaxed),
                responses: client.stats.responses.load(Ordering::Relaxed),
                errors: client.stats.errors.load(Ordering::Relaxed),
            }),
            Ok(Request::Shutdown) => {
                client.send(&Response::ShuttingDown);
                queue.begin_drain();
                // The accept loop is blocked in accept(2); a throwaway
                // connection wakes it so it can observe the drain flag.
                let _ = UnixStream::connect(socket);
                break;
            }
            Ok(Request::Eval(eval)) => {
                let request_id = eval.id;
                if queue
                    .push(Job {
                        client: Arc::clone(&client),
                        eval,
                    })
                    .is_err()
                {
                    client.send(&Response::Error {
                        id: request_id,
                        error: "server is draining and accepts no new work".to_string(),
                    });
                }
            }
        }
    }
    eprintln!(
        "jmake-serve: client {id} disconnected: {} request(s), {} response(s), {} error(s)",
        client.stats.requests.load(Ordering::Relaxed),
        client.stats.responses.load(Ordering::Relaxed),
        client.stats.errors.load(Ordering::Relaxed),
    );
    Ok(())
}

/// Connect to a running daemon, send one request, return its response.
/// One request per connection — the CLI's mode of use; the protocol
/// itself allows many per connection.
pub fn request(socket: &std::path::Path, request: &Request) -> io::Result<Response> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(protocol::encode_request(request).as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without responding",
        ));
    }
    protocol::decode_response(&line).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed response: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn temp_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "jmake-serve-test-{tag}-{}.sock",
            std::process::id()
        ))
    }

    fn wait_for_socket(path: &std::path::Path) {
        for _ in 0..200 {
            if UnixStream::connect(path).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("server never came up on {}", path.display());
    }

    fn eval_request(id: u64, commits: usize, command: &str) -> EvalRequest {
        EvalRequest {
            id,
            commits,
            workers: 2,
            command: command.to_string(),
            ..EvalRequest::default()
        }
    }

    #[test]
    fn serves_byte_identical_reports_and_drains_on_shutdown() {
        let socket = temp_socket("e2e");
        let opts = ServerOptions {
            socket: socket.clone(),
            parallel: 2,
            queue_capacity: 4,
            cache_dir: None,
        };
        let server = std::thread::spawn(move || serve(&opts));
        wait_for_socket(&socket);

        // What jmake-eval would print locally for the same parameters.
        let req = eval_request(1, 10, "summary");
        let profile = WorkloadProfile {
            commits: req.commits,
            seed: req.seed,
            ..WorkloadProfile::default()
        };
        let driver = DriverOptions {
            workers: 2,
            ..DriverOptions::default()
        };
        let expected =
            render_command(&build_context_with_driver(&profile, &driver), "summary").unwrap();

        // Cold request, then a warm repeat: both byte-identical to local.
        for round in 0..2 {
            let resp = request(&socket, &Request::Eval(req.clone())).unwrap();
            assert_eq!(
                resp,
                Response::Report {
                    id: 1,
                    report: expected.clone()
                },
                "round {round}"
            );
        }

        // An unknown command answers an error, not a hang.
        let resp = request(&socket, &Request::Eval(eval_request(9, 10, "tableX"))).unwrap();
        assert!(matches!(resp, Response::Error { id: 9, .. }), "{resp:?}");

        // A fix request serves remediation JSON + annotated section,
        // byte-identical to `jmake-eval --fix summary` run locally.
        let mut fix_req = eval_request(4, 10, "summary");
        fix_req.fix = true;
        let mut local = build_context_with_driver(&profile, &driver);
        let fix = jmake_fix::remediate(&local.workload.repo, &local.run);
        jmake_fix::annotate_run(&mut local.run, &fix);
        let expected_fix = format!(
            "{}{}",
            fix.to_json(),
            render_command(&local, "summary").unwrap()
        );
        let resp = request(&socket, &Request::Eval(fix_req)).unwrap();
        assert_eq!(
            resp,
            Response::Report {
                id: 4,
                report: expected_fix
            },
            "served --fix output must match the local pass byte for byte"
        );

        // Per-client stats over one multi-request connection.
        let mut stream = UnixStream::connect(&socket).unwrap();
        for line in [
            protocol::encode_request(&Request::Eval(eval_request(2, 10, "table1"))),
            protocol::encode_request(&Request::Eval(eval_request(3, 10, "table1"))),
        ] {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reports = 0;
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match protocol::decode_response(&line).unwrap() {
                Response::Report { id, .. } => {
                    assert!(id == 2 || id == 3);
                    reports += 1;
                }
                other => panic!("expected reports, got {other:?}"),
            }
        }
        assert_eq!(reports, 2);
        stream
            .write_all(format!("{}\n", protocol::encode_request(&Request::Stats)).as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match protocol::decode_response(&line).unwrap() {
            Response::Stats {
                requests,
                responses,
                errors,
            } => {
                assert_eq!((requests, responses, errors), (3, 2, 0));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        drop(reader);

        // Shutdown acknowledges, drains, and the server thread returns.
        let resp = request(&socket, &Request::Shutdown).unwrap();
        assert_eq!(resp, Response::ShuttingDown);
        server.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file removed on clean shutdown");
    }

    #[test]
    fn over_long_request_line_is_refused_and_others_are_served() {
        let socket = temp_socket("long-line");
        let opts = ServerOptions {
            socket: socket.clone(),
            parallel: 1,
            queue_capacity: 1,
            cache_dir: None,
        };
        let server = std::thread::spawn(move || serve(&opts));
        wait_for_socket(&socket);

        // One byte over the cap and no newline: an unbounded line reader
        // would wait for more input forever.
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("an answer, not a timeout");
        match protocol::decode_response(&line).unwrap() {
            Response::Error { id: 0, error } => {
                assert!(error.contains(&MAX_REQUEST_LINE.to_string()), "{error}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // The daemon closed that connection.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line:?}");

        // Other clients are still served.
        let resp = request(&socket, &Request::Stats).unwrap();
        assert!(
            matches!(resp, Response::Stats { requests: 1, .. }),
            "{resp:?}"
        );
        let resp = request(&socket, &Request::Shutdown).unwrap();
        assert_eq!(resp, Response::ShuttingDown);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn draining_server_refuses_new_work_but_finishes_queued_jobs() {
        let queue = Queue::new(2);
        let client = Arc::new(Client {
            id: 1,
            writer: Mutex::new({
                // A pair gives send() somewhere to write; the far end is
                // dropped, which Client::send tolerates.
                let (a, _b) = UnixStream::pair().unwrap();
                a
            }),
            stats: ClientStats::default(),
        });
        queue
            .push(Job {
                client: Arc::clone(&client),
                eval: EvalRequest::default(),
            })
            .unwrap_or_else(|_| panic!("push before drain"));
        queue.begin_drain();
        assert!(queue
            .push(Job {
                client: Arc::clone(&client),
                eval: EvalRequest::default(),
            })
            .is_err());
        // The queued job still drains.
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }
}
