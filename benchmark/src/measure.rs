//! Clocks, process counters, the benchmark's own spans, and the
//! statistics the report is built from.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Process user+system CPU time in seconds, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s — the
/// `USER_HZ` Linux exposes on every mainstream architecture).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // split on whitespace, so field 14 is index 11 past the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one timed phase.
pub struct Timer {
    wall: Instant,
    cpu: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// (wall seconds, CPU seconds) since `start`.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}

/// One span the benchmark recorded around a call into a layer.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub patch: Option<String>,
    /// The rep the span belongs to; `None` during set-up.
    pub rep: Option<usize>,
}

impl SpanRec {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The benchmark's own spans, kept in memory and written at exit. While
/// disabled (untraced reps) it records nothing and costs a branch.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub rep: Option<usize>,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    /// A recorder that starts disabled.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            rep: None,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id, `None` while disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        patch: Option<&str>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            patch: patch.map(str::to_string),
            rep: self.rep,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        patch: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, patch);
        let out = f();
        self.close(id);
        out
    }

    /// Summed duration of this rep's spans called `name`, in µs.
    pub fn total_us(&self, rep: usize, name: &str) -> f64 {
        self.durations_ns(rep, name).iter().sum::<u64>() as f64 / 1e3
    }

    pub fn durations_ns(&self, rep: usize, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.rep == Some(rep) && s.name == name)
            .map(SpanRec::ns)
            .collect()
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let patch = s
                .patch
                .as_ref()
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            let rep = s.rep.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"patch\":{},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, patch, rep
            )?;
        }
        out.flush()
    }
}

/// Median (mean of the middle pair for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A reported value with the spread it came from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median of repeated measurements, with their quartiles.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }
}
