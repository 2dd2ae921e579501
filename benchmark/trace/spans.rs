//! In-memory span log. Each timed call into a layer is one span: layer name,
//! the layer whose call covers it, the burst or message number it belongs to
//! (the same number on every twin, because every twin replays the same seeded
//! input), and start/end on the process clock. Spans are written out as CSV
//! when the run ends. Each level's log is capped: the per-layer numbers come from the
//! window meters, which see every call; the log is there to be read.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept per level (≈2.5 MB of CSV).
const CAP: usize = 50_000;

struct Span {
    layer: &'static str,
    parent: &'static str,
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    log: Vec<Span>,
    pub dropped: u64,
}

/// The instant every span of the process is timed from.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

impl Spans {
    pub fn new() -> Self {
        origin();
        Spans { log: Vec::with_capacity(CAP), dropped: 0 }
    }

    /// Record a call to `layer` that started at `t0` and has just returned.
    #[inline]
    pub fn close(&mut self, layer: &'static str, parent: &'static str, id: u64, t0: Instant) -> u64 {
        let end = Instant::now();
        if self.log.len() < CAP {
            let start_ns = t0.duration_since(origin()).as_nanos() as u64;
            let end_ns = end.duration_since(origin()).as_nanos() as u64;
            self.log.push(Span { layer, parent, id, start_ns, end_ns });
        } else {
            self.dropped += 1;
        }
        end.duration_since(t0).as_nanos() as u64
    }
}

/// Write every level's log to one CSV file.
pub fn write_csv(path: &std::path::Path, logs: &[&Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "layer,parent,id,start_ns,end_ns")?;
    for s in logs.iter().flat_map(|l| &l.log) {
        writeln!(w, "{},{},{},{},{}", s.layer, s.parent, s.id, s.start_ns, s.end_ns)?;
    }
    w.flush()
}
