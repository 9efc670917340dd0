//! `jmake-serve` — evaluation daemon and its client, in one binary.
//!
//! Server mode (default):
//!
//! ```text
//! jmake-serve --socket PATH [--parallel N] [--queue N] [--cache-dir DIR]
//! ```
//!
//! Runs until a client sends `--shutdown`; queued evaluations are
//! drained (each still gets its response) before the process exits.
//! With `--cache-dir` the persistent tier is loaded at startup and
//! persisted at shutdown — the same on-disk format `jmake-eval
//! --cache-dir` uses, so the two can share a directory.
//!
//! Client mode:
//!
//! ```text
//! jmake-serve --client PATH [--id N] [--commits N] [--seed S]
//!             [--workers W] [--allmodconfig] [--coverage] [--fix] [COMMAND]
//! jmake-serve --client PATH --stats
//! jmake-serve --client PATH --shutdown
//! ```
//!
//! Prints the served report to stdout — byte-identical to `jmake-eval
//! COMMAND` with the same workload flags. With `--fix` the daemon also
//! runs the remediation pass against its warm caches; the remediation
//! JSON precedes the report, exactly as `jmake-eval --fix` prints it.

use jmake_serve::{request, serve, EvalRequest, Request, Response, ServerOptions};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage:
  jmake-serve --socket PATH [--parallel N] [--queue N] [--cache-dir DIR]
  jmake-serve --client PATH [--id N] [--commits N] [--seed S] [--workers W]
              [--allmodconfig] [--coverage] [--fix] [COMMAND]
  jmake-serve --client PATH --stats
  jmake-serve --client PATH --shutdown";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.into_iter();

    let mut socket: Option<PathBuf> = None;
    let mut client: Option<PathBuf> = None;
    let mut parallel = ServerOptions::default().parallel;
    let mut queue = ServerOptions::default().queue_capacity;
    let mut cache_dir: Option<PathBuf> = None;
    let mut eval = EvalRequest::default();
    let mut command: Option<String> = None;
    let mut stats = false;
    let mut shutdown = false;

    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{USAGE}");
            exit(2);
        })
    }
    fn numeric<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse {raw:?}\n{USAGE}");
            exit(2);
        })
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value(&mut args, "--socket"))),
            "--client" => client = Some(PathBuf::from(value(&mut args, "--client"))),
            "--parallel" => parallel = numeric(&value(&mut args, "--parallel"), "--parallel"),
            "--queue" => queue = numeric(&value(&mut args, "--queue"), "--queue"),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value(&mut args, "--cache-dir"))),
            "--id" => eval.id = numeric(&value(&mut args, "--id"), "--id"),
            "--commits" => eval.commits = numeric(&value(&mut args, "--commits"), "--commits"),
            "--seed" => eval.seed = numeric(&value(&mut args, "--seed"), "--seed"),
            "--workers" => eval.workers = numeric(&value(&mut args, "--workers"), "--workers"),
            "--allmodconfig" => eval.allmodconfig = true,
            "--coverage" => eval.coverage = true,
            "--fix" => eval.fix = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if !other.starts_with('-') && command.is_none() => {
                command = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                exit(2);
            }
        }
    }

    match (socket, client) {
        (Some(_), Some(_)) => {
            eprintln!("--socket and --client are mutually exclusive\n{USAGE}");
            exit(2);
        }
        (None, None) => {
            eprintln!("one of --socket (server) or --client (client) is required\n{USAGE}");
            exit(2);
        }
        (Some(socket), None) => {
            if stats || shutdown || command.is_some() {
                eprintln!("client flags given in server mode\n{USAGE}");
                exit(2);
            }
            let opts = ServerOptions {
                socket,
                parallel,
                queue_capacity: queue,
                cache_dir,
            };
            if let Err(e) = serve(&opts) {
                eprintln!("jmake-serve: {e}");
                exit(1);
            }
        }
        (None, Some(path)) => {
            let req = if shutdown {
                Request::Shutdown
            } else if stats {
                Request::Stats
            } else {
                if let Some(command) = command {
                    eval.command = command;
                }
                Request::Eval(eval)
            };
            match request(&path, &req) {
                Ok(Response::Report { report, .. }) => print!("{report}"),
                Ok(Response::Error { id, error }) => {
                    eprintln!("jmake-serve: request {id} failed: {error}");
                    exit(1);
                }
                Ok(Response::Stats {
                    requests,
                    responses,
                    errors,
                }) => println!("requests={requests} responses={responses} errors={errors}"),
                Ok(Response::ShuttingDown) => eprintln!("jmake-serve: server is draining"),
                Err(e) => {
                    eprintln!("jmake-serve: {}: {e}", path.display());
                    exit(1);
                }
            }
        }
    }
}
