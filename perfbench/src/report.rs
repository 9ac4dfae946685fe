//! Reducing a run to named metrics, and writing them out.

use crate::driver::Spans;
use genesis_obs::ChromeTrace;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile (`p` in `0..=1`) of an unsorted sample; 0 when
/// empty.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Slices of the timed phase for the tail percentiles.
const WINDOWS: usize = 5;

/// `(result time, latency)` samples grouped into `WINDOWS` equal slices
/// of a phase lasting `wall`, by when the result came back.
fn windows(samples: &[(Duration, Duration)], wall: Duration) -> Vec<Vec<f64>> {
    let mut slices = vec![Vec::new(); WINDOWS];
    for (at, latency) in samples {
        let i = (at.as_secs_f64() / wall.as_secs_f64() * WINDOWS as f64) as usize;
        slices[i.min(WINDOWS - 1)].push(latency.as_secs_f64() * 1e3);
    }
    slices
}

/// Requests per slice, for the sample counts the run prints.
pub fn window_counts(samples: &[(Duration, Duration)], wall: Duration) -> Vec<usize> {
    windows(samples, wall).iter().map(Vec::len).collect()
}

/// Tail latency in ms: each slice's nearest-rank `p` percentile, median
/// over the slices. A host stall inflates only the slices it overlaps,
/// and the median discards up to two of five.
pub fn windowed_percentile(samples: &[(Duration, Duration)], wall: Duration, p: f64) -> f64 {
    let per_slice: Vec<f64> = windows(samples, wall)
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p))
        .collect();
    percentile(&per_slice, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Chrome trace of the recorded spans: one track per client (track 0 is
/// set-up and the oracle check), timestamps in µs from `epoch`, and the
/// span's request id as its category.
pub fn chrome_trace(spans: &Spans, epoch: Instant) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.process_name(1, "perfbench");
    let mut tids: Vec<u32> = spans.list.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == 0 {
            "setup".to_owned()
        } else {
            format!("client {}", tid - 1)
        };
        trace.thread_name(1, tid, &name);
    }
    for s in &spans.list {
        let ts = s.start.saturating_duration_since(epoch).as_micros() as u64;
        let dur = (s.end - s.start).as_micros() as u64;
        trace.complete(1, s.tid, s.name, &format!("job-{:x}", s.id), ts, dur);
    }
    trace
}
