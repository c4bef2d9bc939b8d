//! Spans around the calls into each layer's public functions.
//!
//! The harness is the only thing instrumented: the drivers wrap every
//! call into the program in [`Tracer::call`], and enclosing work
//! (`run`, `setup`, each driver iteration) in [`Tracer::open`]/[`Tracer::close`].
//! With [`NoTrace`] all of it compiles to the bare call; with
//! [`SpanTracer`] each call costs two clock reads and updates a
//! per-name aggregate (count, sum, self time, max, p50, p99). Full span
//! records are kept for one driver iteration in [`SAMPLE_EVERY`] up to
//! [`MAX_SPANS`], and written out at exit as a Chrome trace.
//!
//! A span's self time is its duration minus the time its child spans
//! cover; spans never overlap their siblings because the driver is one
//! thread.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Span names, indexed by the `usize` constants below. The prefix
/// before the first `.` is the layer (crate) the call enters.
pub const NAMES: [&str; 22] = [
    "run",
    "setup",
    "iteration",
    "workloads.generate",
    "core.topogen_generate",
    "core.spec_compile",
    "core.network_build",
    "server-cpu.build",
    "server-cpu.coherence_ping",
    "ai.build",
    "bench.warmup",
    "core.tick",
    "core.enqueue",
    "core.pop_delivered",
    "txn.new",
    "txn.submit",
    "txn.tick",
    "txn.drain",
    "chi.issue",
    "chi.tick",
    "chi.take_completions",
    "ai.tick",
];

pub const RUN: usize = 0;
pub const SETUP: usize = 1;
pub const ITERATION: usize = 2;
pub const GENERATE: usize = 3;
pub const TOPOGEN: usize = 4;
pub const COMPILE: usize = 5;
pub const NET_BUILD: usize = 6;
pub const SERVER_BUILD: usize = 7;
pub const SERVER_PING: usize = 8;
pub const AI_BUILD: usize = 9;
pub const WARMUP: usize = 10;
pub const CORE_TICK: usize = 11;
pub const CORE_ENQUEUE: usize = 12;
pub const CORE_POP: usize = 13;
pub const TXN_NEW: usize = 14;
pub const TXN_SUBMIT: usize = 15;
pub const TXN_TICK: usize = 16;
pub const TXN_DRAIN: usize = 17;
pub const CHI_ISSUE: usize = 18;
pub const CHI_TICK: usize = 19;
pub const CHI_TAKE: usize = 20;
pub const AI_TICK: usize = 21;

/// Full span records are kept for one driver iteration in this many.
pub const SAMPLE_EVERY: u64 = 64;
/// Cap on full span records kept in memory.
pub const MAX_SPANS: usize = 1_000_000;

/// What the drivers call; see the module docs.
pub trait Tracer {
    /// Whether calls are timed.
    const ENABLED: bool;
    /// Time one call into the program.
    fn call<R>(&mut self, name: usize, f: impl FnOnce() -> R) -> R;
    /// Time a batch of calls to one function as one span; `f` returns
    /// how many calls it made. For functions called hundreds of times
    /// per simulated cycle, where a span per call would cost more than
    /// the calls and evict the program's data.
    fn batch(&mut self, name: usize, f: impl FnOnce() -> u64) -> u64;
    /// Open an enclosing span (`run`, `setup`, a set-up phase).
    fn open(&mut self, name: usize);
    /// Close the innermost open span.
    fn close(&mut self);
    /// Open the span of one driver iteration (one simulated cycle).
    fn iter_open(&mut self);
    /// Close it.
    fn iter_close(&mut self);
    /// Seconds the most recently closed span of `name` took (set-up
    /// phases are read back this way in both modes).
    fn last_secs(&self, name: usize) -> f64;
}

/// Tracing off: calls run bare; enclosing spans are still timed (a
/// handful per run) because set-up phases are end-to-end metrics.
#[derive(Debug)]
pub struct NoTrace {
    open: Vec<(usize, Instant)>,
    last: [f64; NAMES.len()],
}

impl Default for NoTrace {
    fn default() -> Self {
        NoTrace {
            open: Vec::new(),
            last: [0.0; NAMES.len()],
        }
    }
}

impl Tracer for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn call<R>(&mut self, _name: usize, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn batch(&mut self, _name: usize, f: impl FnOnce() -> u64) -> u64 {
        f()
    }

    fn open(&mut self, name: usize) {
        self.open.push((name, Instant::now()));
    }

    fn close(&mut self) {
        if let Some((name, start)) = self.open.pop() {
            self.last[name] = start.elapsed().as_secs_f64();
        }
    }

    #[inline(always)]
    fn iter_open(&mut self) {}

    #[inline(always)]
    fn iter_close(&mut self) {}

    fn last_secs(&self, name: usize) -> f64 {
        self.last[name]
    }
}

/// Per-name aggregate of a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Spans closed.
    pub count: u64,
    /// Calls into the program those spans covered (more than `count`
    /// for batched spans, 0 for enclosing ones).
    pub calls: u64,
    /// Σ duration (ns).
    pub sum_ns: u64,
    /// Σ duration minus child spans (ns).
    pub self_ns: u64,
    /// Longest span (ns).
    pub max_ns: u64,
    /// Median duration (ns, ≤ 6 % bucket error).
    pub p50_ns: u64,
    /// 99th-percentile duration (ns, ≤ 6 % bucket error).
    pub p99_ns: u64,
}

/// The cost of tracing one call.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanCost {
    /// The part of the two clock reads that falls inside the span and
    /// is counted in its duration (ns).
    pub inside_ns: f64,
    /// Everything an empty `call` costs: clock reads plus bookkeeping
    /// (ns).
    pub total_ns: f64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Index into [`NAMES`].
    pub name: usize,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent record in the same list, if it was kept.
    pub parent: Option<usize>,
}

/// Duration buckets per aggregate: 2^4 … 2^40 ns, 16 per octave.
const HIST_LEN: usize = (40 - 3) * 16;

#[derive(Debug, Clone)]
struct Agg {
    count: u64,
    calls: u64,
    sum: u64,
    self_sum: u64,
    max: u64,
    /// 16 sub-buckets per power of two, up to 2^40 ns. Kept small
    /// (2.5 KiB): three of these are touched hundreds of times per
    /// simulated cycle and must not evict the program's own data.
    hist: Vec<u32>,
}

impl Agg {
    fn new() -> Self {
        Agg {
            count: 0,
            calls: 0,
            sum: 0,
            self_sum: 0,
            max: 0,
            hist: vec![0; HIST_LEN],
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (exp - 4)) & 15) as usize;
        ((exp - 3) * 16 + sub).min(HIST_LEN - 1)
    }

    fn bucket_floor(i: usize) -> u64 {
        if i < 16 {
            return i as u64;
        }
        let exp = i / 16 + 3;
        let sub = (i % 16) as u64;
        (16 + sub) << (exp - 4)
    }

    fn quantile(&self, q: f64) -> u64 {
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.hist.iter().enumerate() {
            seen += u64::from(c);
            if seen >= target {
                return Self::bucket_floor(i).min(self.max);
            }
        }
        self.max
    }
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span's record, when it is being kept.
    rec: Option<usize>,
}

/// Tracing on.
#[derive(Debug)]
pub struct SpanTracer {
    origin: Instant,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    last: [f64; NAMES.len()],
    iterations: u64,
    keeping: bool,
    spans: Vec<SpanRec>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            aggs: (0..NAMES.len()).map(|_| Agg::new()).collect(),
            last: [0.0; NAMES.len()],
            iterations: 0,
            keeping: true,
            spans: Vec::new(),
        }
    }
}

impl SpanTracer {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, name: usize) {
        let start_ns = self.now_ns();
        let rec = if self.keeping && self.spans.len() < MAX_SPANS {
            self.spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.rec),
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            rec,
        });
    }

    #[inline]
    fn pop(&mut self) {
        let end_ns = self.now_ns();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_ns - open.start_ns;
        let agg = &mut self.aggs[open.name];
        agg.count += 1;
        agg.sum += dur;
        agg.self_sum += dur.saturating_sub(open.child_ns);
        agg.max = agg.max.max(dur);
        agg.hist[Agg::bucket(dur)] += 1;
        self.last[open.name] = dur as f64 * 1e-9;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.rec {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// What an empty span costs, measured on a scratch tracer. Per-call
    /// figures are corrected by `inside_ns` (without it a 5 ns call
    /// reads as 25 ns) and the driver's own time by the rest.
    pub fn calibrate() -> SpanCost {
        const N: u32 = 20_000;
        let mut scratch = SpanTracer {
            keeping: false,
            ..SpanTracer::default()
        };
        let t = Instant::now();
        for _ in 0..N {
            scratch.call(CORE_TICK, || std::hint::black_box(()));
        }
        let total_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
        let agg = &scratch.aggs[CORE_TICK];
        SpanCost {
            inside_ns: agg.sum as f64 / agg.count as f64,
            total_ns,
        }
    }

    /// Aggregates of every name that closed at least one span.
    pub fn aggregates(&self) -> Vec<SpanAgg> {
        self.aggs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.count > 0)
            .map(|(i, a)| SpanAgg {
                name: NAMES[i].to_string(),
                count: a.count,
                calls: a.calls,
                sum_ns: a.sum,
                self_ns: a.self_sum,
                max_ns: a.max,
                p50_ns: a.quantile(0.5),
                p99_ns: a.quantile(0.99),
            })
            .collect()
    }

    /// The span records kept.
    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The kept spans as a Chrome trace (`chrome://tracing`,
    /// <https://ui.perfetto.dev>): complete (`"ph":"X"`) events in
    /// microseconds, one thread, with the parent's record index and
    /// the run id in `args`.
    pub fn chrome_trace(&self, workload: &str, run_id: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\",\"run\":\"");
        out.push_str(run_id);
        out.push_str("\"},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = NAMES[s.name].split('.').next().unwrap_or("bench");
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":\"{}\"}}}}",
                NAMES[s.name],
                layer,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                run_id,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Tracer for SpanTracer {
    const ENABLED: bool = true;

    #[inline]
    fn call<R>(&mut self, name: usize, f: impl FnOnce() -> R) -> R {
        self.push(name);
        let r = f();
        self.pop();
        self.aggs[name].calls += 1;
        r
    }

    #[inline]
    fn batch(&mut self, name: usize, f: impl FnOnce() -> u64) -> u64 {
        self.push(name);
        let calls = f();
        self.pop();
        self.aggs[name].calls += calls;
        calls
    }

    fn open(&mut self, name: usize) {
        self.push(name);
    }

    fn close(&mut self) {
        self.pop();
    }

    fn iter_open(&mut self) {
        self.keeping = self.iterations.is_multiple_of(SAMPLE_EVERY);
        self.iterations += 1;
        self.push(ITERATION);
    }

    fn iter_close(&mut self) {
        self.pop();
        // Outside iterations (set-up, run) everything is kept.
        self.keeping = true;
    }

    fn last_secs(&self, name: usize) -> f64 {
        self.last[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = SpanTracer::default();
        tr.open(RUN);
        tr.iter_open();
        tr.call(CORE_TICK, || spin(200_000));
        tr.call(CORE_POP, || spin(100_000));
        spin(50_000);
        tr.iter_close();
        tr.close();
        let aggs = tr.aggregates();
        let get = |n: &str| aggs.iter().find(|a| a.name == n).unwrap().clone();
        let (run, it, tick, pop) = (
            get("run"),
            get("iteration"),
            get("core.tick"),
            get("core.pop_delivered"),
        );
        // Leaves have no children: self time is the whole span.
        assert_eq!(tick.self_ns, tick.sum_ns);
        assert_eq!(pop.self_ns, pop.sum_ns);
        // Exact arithmetic: parent self = parent − Σ children.
        assert_eq!(it.self_ns, it.sum_ns - tick.sum_ns - pop.sum_ns);
        assert_eq!(run.self_ns, run.sum_ns - it.sum_ns);
        assert!(it.self_ns >= 50_000, "the driver's own 50 µs is self time");
        assert!(tick.sum_ns >= 200_000 && pop.sum_ns >= 100_000);
        // Self times partition the root span.
        let total: u64 = aggs.iter().map(|a| a.self_ns).sum();
        assert_eq!(total, run.sum_ns);
    }

    #[test]
    fn spans_record_parents_and_sampling() {
        let mut tr = SpanTracer::default();
        tr.open(RUN);
        for _ in 0..(SAMPLE_EVERY * 2) {
            tr.iter_open();
            tr.call(CORE_TICK, || ());
            tr.iter_close();
        }
        tr.close();
        // run + two kept iterations with one call each.
        assert_eq!(tr.spans().len(), 1 + 2 * 2);
        let ticks: Vec<_> = tr.spans().iter().filter(|s| s.name == CORE_TICK).collect();
        for t in ticks {
            let parent = tr.spans()[t.parent.unwrap()];
            assert_eq!(parent.name, ITERATION);
            assert_eq!(tr.spans()[parent.parent.unwrap()].name, RUN);
            assert!(parent.start_ns <= t.start_ns && t.end_ns <= parent.end_ns);
        }
        // Aggregates still count every call.
        let aggs = tr.aggregates();
        let tick = aggs.iter().find(|a| a.name == "core.tick").unwrap();
        assert_eq!(tick.count, SAMPLE_EVERY * 2);
        let json = tr.chrome_trace("w", "r0");
        let v: serde::Value = serde_json::from_str(&json).expect("trace is valid JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 5);
    }

    #[test]
    fn a_batch_is_one_span_of_many_calls() {
        let mut tr = SpanTracer::default();
        tr.iter_open();
        assert_eq!(tr.batch(CORE_POP, || 280), 280);
        tr.call(CORE_TICK, || ());
        tr.iter_close();
        let aggs = tr.aggregates();
        let pop = aggs
            .iter()
            .find(|a| a.name == "core.pop_delivered")
            .unwrap();
        assert_eq!((pop.count, pop.calls), (1, 280));
        let tick = aggs.iter().find(|a| a.name == "core.tick").unwrap();
        assert_eq!((tick.count, tick.calls), (1, 1));
        let it = aggs.iter().find(|a| a.name == "iteration").unwrap();
        assert_eq!((it.count, it.calls), (1, 0));
        assert_eq!(NoTrace::default().batch(CORE_POP, || 3), 3);
    }

    #[test]
    fn calibration_splits_the_cost_of_an_empty_span() {
        let cost = SpanTracer::calibrate();
        assert!(cost.inside_ns > 0.0 && cost.inside_ns < cost.total_ns);
        assert!(
            cost.total_ns < 5_000.0,
            "an empty span costs {} ns",
            cost.total_ns
        );
    }

    #[test]
    fn duration_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, (1 << 40) - 1] {
            let b = Agg::bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            last = b;
            let floor = Agg::bucket_floor(b);
            assert!(floor <= ns, "floor {floor} > {ns}");
            assert!(ns - floor <= ns / 16, "bucket wider than 1/16 at {ns}");
        }
    }

    #[test]
    fn untraced_calls_run_bare_but_phases_are_timed() {
        let mut tr = NoTrace::default();
        tr.open(SETUP);
        let v = tr.call(CORE_TICK, || 7);
        tr.iter_open();
        tr.iter_close();
        spin(1_000_000);
        tr.close();
        assert_eq!(v, 7);
        assert!(tr.last_secs(SETUP) >= 0.001);
        assert_eq!(tr.last_secs(CORE_TICK), 0.0);
    }
}
