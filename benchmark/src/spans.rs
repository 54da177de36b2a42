//! The benchmark's own span list and timing samples.
//!
//! Every call into a crate's public function runs inside [`Recorder::span`].
//! Each span's duration is kept as a sample under its name (that is where
//! every timing metric comes from, traced or not); in a traced pass the span
//! itself — name, start, end, parent, iteration — is also kept in memory and
//! written out when the run ends. Spans inside the engine's crates are a
//! later change; these wrap the calls from outside.
//!
//! Result checks and input copies run inside [`Recorder::untimed`]: their
//! time is subtracted from every open span and from the iteration, so the
//! oracles cost the run wall-clock but not a single reported number.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Untimed (check / input-copy) time inside the span.
    pub paused_ns: u64,
    /// Index of the enclosing span in the list, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to; 0 outside iterations (probes).
    pub iteration: u32,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    paused_ns: u64,
    /// Slot reserved in `spans` when the list is kept.
    slot: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    /// Keep the span list (traced pass) or only the samples.
    keep_spans: bool,
    /// Samples are kept only while measuring (not during warm-up).
    measuring: bool,
    iteration: u32,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(keep_spans: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            keep_spans,
            measuring: false,
            iteration: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
    }

    pub fn begin_iteration(&mut self) {
        self.iteration += 1;
    }

    /// Run `f` as a span named `name`, nested under whichever span is open.
    /// Returns `f`'s result and the span's duration in milliseconds (untimed
    /// sections excluded).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let slot = self.keep_spans.then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.slot);
            self.spans.push(SpanRecord {
                name,
                start_ns: 0,
                end_ns: 0,
                paused_ns: 0,
                parent,
                iteration: self.iteration,
            });
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            paused_ns: 0,
            slot,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack is balanced");
        debug_assert_eq!(open.name, name);
        let ms = (end_ns - open.start_ns - open.paused_ns) as f64 / 1e6;
        if let Some(slot) = open.slot {
            let rec = &mut self.spans[slot];
            rec.start_ns = open.start_ns;
            rec.end_ns = end_ns;
            rec.paused_ns = open.paused_ns;
        }
        if self.measuring {
            self.samples.entry(name).or_default().push(ms);
        }
        (out, ms)
    }

    /// Run `f` off the clock: its duration is charged to no span.
    pub fn untimed<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = self.now_ns();
        let out = f(self);
        let paused = self.now_ns() - start;
        for open in &mut self.stack {
            open.paused_ns += paused;
        }
        out
    }

    /// Add a sample that is not a span's duration (a count, a modeled time).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.measuring {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}
