//! In-memory spans of the traced run, written out when the run ends.
//!
//! A span has a name, start, end, parent span and request id. Each
//! open-loop request gets a `request` span from its due instant to its
//! response, with children `bench.lag` (due → submit), `service.submit`,
//! `service.queue_wait` and `core.execution`. What the children leave
//! uncovered is `service.reply` self time: reply delivery plus the wait
//! until the generator looked. The sequential ladder adds parentless spans
//! (request id 0) around each measured call.
//!
//! The self-check has two parts. *Fit*, which fails the run: the children
//! built from the service's `QueryTrace` must end inside the request span,
//! because the service starts its queue-wait clock inside `submit` and
//! replies only after execution ends. *Coverage*, which is reported: the
//! children should cover the request span to within a tolerance.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::since;

/// Coverage tolerance: the children should cover a request span to within
/// this many nanoseconds or [`GAP_TOL_FRAC`] of its length, whichever is
/// larger.
pub const GAP_TOL_NS: u64 = 50_000;
/// See [`GAP_TOL_NS`].
pub const GAP_TOL_FRAC: f64 = 0.05;
/// Fit tolerance: how far a child may end past its request span.
pub const FIT_TOL_NS: u64 = 1_000;

struct Row {
    id: u32,
    parent: u32,
    request: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    rows: Vec<Row>,
    /// Per request span: (uncovered ns, length ns).
    gaps: Vec<(u64, u64)>,
    /// Largest amount by which a child ended past its request span, ns.
    overrun_max: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            rows: Vec::new(),
            gaps: Vec::new(),
            overrun_max: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Records one span; returns its id (0 when tracing is off).
    pub fn span(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.rows.len() as u32 + 1;
        self.rows.push(Row {
            id,
            parent,
            request,
            name,
            start_ns: since(self.epoch, start),
            end_ns: since(self.epoch, end),
        });
        id
    }

    /// Records a `request` span with its children and the part of it the
    /// children leave uncovered.
    pub fn request(
        &mut self,
        request: u32,
        due: Instant,
        done: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) {
        let parent = self.span(0, request, "request", due, done);
        let mut covered: Vec<(u64, u64)> = Vec::with_capacity(children.len());
        for &(name, start, end) in children {
            self.span(parent, request, name, start, end);
            self.overrun_max = self.overrun_max.max(since(done, end));
            covered.push((since(due, start), since(due, end.min(done))));
        }
        covered.sort_unstable();
        let (mut union, mut reach) = (0u64, 0u64);
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                union += e - s;
                reach = e;
            }
        }
        let length = since(due, done);
        self.gaps.push((length.saturating_sub(union), length));
    }

    /// Uncovered (`service.reply` self) time per request span, ns.
    pub fn reply_self_ns(&self) -> Vec<u64> {
        self.gaps.iter().map(|g| g.0).collect()
    }

    /// Whether every child ended within [`FIT_TOL_NS`] of its request
    /// span's end, and the largest overrun (µs).
    pub fn fit(&self) -> (bool, f64) {
        (
            self.overrun_max <= FIT_TOL_NS,
            self.overrun_max as f64 / 1e3,
        )
    }

    /// Coverage: the largest uncovered gap (µs) and the fraction of
    /// request spans covered within tolerance.
    pub fn coverage(&self) -> (f64, f64) {
        let max = self.gaps.iter().map(|g| g.0).max().unwrap_or(0);
        let within = self
            .gaps
            .iter()
            .filter(|&&(gap, len)| gap <= GAP_TOL_NS.max((len as f64 * GAP_TOL_FRAC) as u64))
            .count();
        (
            max as f64 / 1e3,
            within as f64 / self.gaps.len().max(1) as f64,
        )
    }

    /// Writes the spans as tab-separated rows.
    pub fn write(&self, path: &Path) -> io::Result<PathBuf> {
        let mut out = String::with_capacity(self.rows.len() * 48 + 64);
        out.push_str("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.id, r.parent, r.request, r.name, r.start_ns, r.end_ns
            );
        }
        crate::report::write_file(path, &out)?;
        Ok(path.to_path_buf())
    }
}
