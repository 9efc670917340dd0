//! The `jmake-serve` wire protocol: JSONL over a Unix domain socket.
//!
//! One JSON object per line in each direction. The encoder reuses
//! [`jmake_trace::jsonl::escape`] and the decoder
//! [`jmake_trace::jsonl::JsonParser`] — the same primitives the trace-log
//! format is built on — so string framing cannot drift between the two
//! protocols (surrogate-pair handling included; report text is arbitrary).
//!
//! Requests:
//!
//! ```text
//! {"id":1,"commits":40,"seed":3735928559,"workers":4,
//!  "allmodconfig":false,"coverage":false,"fix":false,"command":"summary"}
//! {"stats":true}
//! {"shutdown":true}
//! ```
//!
//! Responses:
//!
//! ```text
//! {"ok":true,"id":1,"report":"…"}          evaluation succeeded
//! {"ok":false,"id":1,"error":"…"}          evaluation failed / bad request
//! {"ok":true,"stats":true,"requests":3,"responses":2,"errors":0}
//! {"ok":true,"shutdown":true}              drain acknowledged
//! ```
//!
//! Unknown keys are rejected (strict, like the trace parser), so a typo'd
//! field fails loudly instead of silently running a default evaluation.

use jmake_synth::WorkloadProfile;
use jmake_trace::jsonl::{escape, JsonParser};

/// One evaluation to run: the workload coordinates plus the report
/// section wanted. Field defaults mirror `jmake-eval`'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Window size (commits in the evaluated range).
    pub commits: usize,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads inside the evaluation's parallel driver.
    pub workers: usize,
    /// Also try allmodconfig (the paper's Table IV remedy).
    pub allmodconfig: bool,
    /// Also try the configurations leftover lines' reach witnesses name
    /// (`jmake-eval --coverage`).
    pub coverage: bool,
    /// Also run the `jmake-fix` remediation pass: the remediation report
    /// (JSON) is prepended to the rendered section and per-file FIX lines
    /// appear in the tables — byte-identical to `jmake-eval --fix`.
    pub fix: bool,
    /// Report section (`all`, `summary`, `table1`…`fig6`).
    pub command: String,
}

impl Default for EvalRequest {
    fn default() -> Self {
        let profile = WorkloadProfile::default();
        EvalRequest {
            id: 0,
            commits: profile.commits,
            seed: profile.seed,
            workers: 4,
            allmodconfig: false,
            coverage: false,
            fix: false,
            command: "all".to_string(),
        }
    }
}

/// One client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run an evaluation and send the rendered report back.
    Eval(EvalRequest),
    /// Report this connection's request/response counters.
    Stats,
    /// Stop accepting work, drain queued evaluations, exit.
    Shutdown,
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The rendered report for request `id` — byte-identical to what
    /// `jmake-eval` prints for the same parameters.
    Report {
        /// Echoed correlation id.
        id: u64,
        /// The report text.
        report: String,
    },
    /// The request failed; `error` says why.
    Error {
        /// Echoed correlation id (0 when the request had none).
        id: u64,
        /// Human-readable reason.
        error: String,
    },
    /// Per-connection counters, answering [`Request::Stats`].
    Stats {
        /// Requests received on this connection.
        requests: u64,
        /// Successful responses sent.
        responses: u64,
        /// Error responses sent.
        errors: u64,
    },
    /// The server acknowledged [`Request::Shutdown`] and is draining.
    ShuttingDown,
}

/// Serialize a request as one JSON line (no trailing newline).
pub fn encode_request(request: &Request) -> String {
    match request {
        Request::Eval(r) => format!(
            "{{\"id\":{},\"commits\":{},\"seed\":{},\"workers\":{},\"allmodconfig\":{},\"coverage\":{},\"fix\":{},\"command\":\"{}\"}}",
            r.id, r.commits, r.seed, r.workers, r.allmodconfig, r.coverage, r.fix, escape(&r.command),
        ),
        Request::Stats => "{\"stats\":true}".to_string(),
        Request::Shutdown => "{\"shutdown\":true}".to_string(),
    }
}

/// Parse one request line. Strict about keys; evaluation fields are all
/// optional and default to [`EvalRequest::default`].
pub fn decode_request(line: &str) -> Result<Request, String> {
    let mut p = JsonParser::new(line.trim());
    let mut eval = EvalRequest::default();
    let mut stats = false;
    let mut shutdown = false;
    let mut saw_eval_field = false;
    p.expect('{')?;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        match key.as_str() {
            "id" => eval.id = p.number()?,
            "commits" => {
                eval.commits = usize::try_from(p.number()?).map_err(|_| "commits out of range")?;
                saw_eval_field = true;
            }
            "seed" => {
                eval.seed = p.number()?;
                saw_eval_field = true;
            }
            "workers" => {
                eval.workers = usize::try_from(p.number()?)
                    .ok()
                    .filter(|w| *w > 0)
                    .ok_or("workers must be a positive integer")?;
                saw_eval_field = true;
            }
            "allmodconfig" => {
                eval.allmodconfig = p.boolean()?;
                saw_eval_field = true;
            }
            "coverage" => {
                eval.coverage = p.boolean()?;
                saw_eval_field = true;
            }
            "fix" => {
                eval.fix = p.boolean()?;
                saw_eval_field = true;
            }
            "command" => {
                eval.command = p.string()?;
                saw_eval_field = true;
            }
            "stats" => stats = p.boolean()?,
            "shutdown" => shutdown = p.boolean()?,
            other => return Err(format!("unknown request field {other:?}")),
        }
        p.skip_ws();
        if !p.eat(',') {
            p.expect('}')?;
            break;
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err("trailing content after request object".to_string());
    }
    match (shutdown, stats) {
        (true, _) if saw_eval_field => {
            Err("shutdown request cannot carry evaluation fields".into())
        }
        (_, true) if saw_eval_field => Err("stats request cannot carry evaluation fields".into()),
        (true, true) => Err("request cannot be both stats and shutdown".into()),
        (true, false) => Ok(Request::Shutdown),
        (false, true) => Ok(Request::Stats),
        (false, false) => Ok(Request::Eval(eval)),
    }
}

/// Serialize a response as one JSON line (no trailing newline).
pub fn encode_response(response: &Response) -> String {
    match response {
        Response::Report { id, report } => {
            format!("{{\"ok\":true,\"id\":{id},\"report\":\"{}\"}}", escape(report))
        }
        Response::Error { id, error } => {
            format!("{{\"ok\":false,\"id\":{id},\"error\":\"{}\"}}", escape(error))
        }
        Response::Stats {
            requests,
            responses,
            errors,
        } => format!(
            "{{\"ok\":true,\"stats\":true,\"requests\":{requests},\"responses\":{responses},\"errors\":{errors}}}"
        ),
        Response::ShuttingDown => "{\"ok\":true,\"shutdown\":true}".to_string(),
    }
}

/// Parse one response line.
pub fn decode_response(line: &str) -> Result<Response, String> {
    let mut p = JsonParser::new(line.trim());
    let mut ok = None;
    let mut id = 0;
    let mut report = None;
    let mut error = None;
    let mut stats = false;
    let mut shutdown = false;
    let (mut requests, mut responses, mut errors) = (0, 0, 0);
    p.expect('{')?;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        match key.as_str() {
            "ok" => ok = Some(p.boolean()?),
            "id" => id = p.number()?,
            "report" => report = Some(p.string()?),
            "error" => error = Some(p.string()?),
            "stats" => stats = p.boolean()?,
            "shutdown" => shutdown = p.boolean()?,
            "requests" => requests = p.number()?,
            "responses" => responses = p.number()?,
            "errors" => errors = p.number()?,
            other => return Err(format!("unknown response field {other:?}")),
        }
        p.skip_ws();
        if !p.eat(',') {
            p.expect('}')?;
            break;
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err("trailing content after response object".to_string());
    }
    match (ok, report, error) {
        (Some(true), _, _) if shutdown => Ok(Response::ShuttingDown),
        (Some(true), _, _) if stats => Ok(Response::Stats {
            requests,
            responses,
            errors,
        }),
        (Some(true), Some(report), None) => Ok(Response::Report { id, report }),
        (Some(false), None, Some(error)) => Ok(Response::Error { id, error }),
        _ => Err("response shape does not match any known variant".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Eval(EvalRequest {
                id: 7,
                commits: 123,
                seed: 0xdead_beef,
                workers: 8,
                allmodconfig: true,
                coverage: false,
                fix: true,
                command: "summary".to_string(),
            }),
            Request::Eval(EvalRequest::default()),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in cases {
            let line = encode_request(&req);
            assert_eq!(decode_request(&line), Ok(req.clone()), "{line}");
        }
    }

    #[test]
    fn responses_round_trip_including_awkward_report_text() {
        let cases = [
            Response::Report {
                id: 3,
                report: "Table I\nline \"two\"\t😀 \u{10FFFF}\n".to_string(),
            },
            Response::Error {
                id: 0,
                error: "unknown command \"tableX\"".to_string(),
            },
            Response::Stats {
                requests: 5,
                responses: 4,
                errors: 1,
            },
            Response::ShuttingDown,
        ];
        for resp in cases {
            let line = encode_response(&resp);
            assert!(!line.contains('\n'), "framing must stay one line: {line}");
            assert_eq!(decode_response(&line), Ok(resp.clone()), "{line}");
        }
    }

    #[test]
    fn defaults_match_jmake_eval() {
        let Request::Eval(r) = decode_request("{}").unwrap() else {
            panic!("bare object is an eval request");
        };
        let profile = WorkloadProfile::default();
        assert_eq!(r.commits, profile.commits);
        assert_eq!(r.seed, profile.seed);
        assert_eq!(r.workers, 4);
        assert!(!r.fix, "remediation is opt-in, like jmake-eval --fix");
        assert_eq!(r.command, "all");
    }

    #[test]
    fn strict_about_unknown_fields_and_mixed_kinds() {
        assert!(decode_request("{\"comits\":5}").is_err());
        assert!(decode_request("{\"shutdown\":true,\"commits\":5}").is_err());
        assert!(decode_request("{\"stats\":true,\"shutdown\":true}").is_err());
        assert!(decode_response("{\"ok\":true}").is_err());
    }
}
