//! Bench-side span recorder. Spans are taken around calls into the
//! engine's public functions, kept in memory, and written out as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part of that interval its child spans cover.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one statement share this identifier.
    pub statement: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a recording thread panicked")
    }

    /// Records a span around `f`, which receives the span's id to parent
    /// its own children on.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        statement: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                statement,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        let mut spans = self.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span, indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Only the part of a child inside its parent can cover it.
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let intervals = &mut children[s.id];
            intervals.sort_unstable();
            // Length of the union: overlapping children are counted once.
            let (mut covered, mut reach) = (0, 0);
            for &(lo, hi) in intervals.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span, with its self time.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"statement\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.statement, s.name, s.start_ns, s.end_ns, own[s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            statement: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),  // 30 covered
            span(2, Some(0), 30, 60),  // overlaps 1: adds 20
            span(3, Some(0), 90, 130), // sticks out: only 10 inside
            span(4, Some(1), 15, 20),  // grandchild: covers 1, not 0
            span(5, None, 200, 250),   // another root, no children
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30 - 5, 30, 40, 5, 50]);
    }

    #[test]
    fn recorder_nests_children_inside_their_parent() {
        let rec = Recorder::new();
        rec.scope("root", None, 9, |root| {
            rec.scope("a", Some(root), 9, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.scope("b", Some(root), 9, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        let children: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(own[0], spans[0].duration_ns() - children);
        assert!(
            own[0] * 10 < spans[0].duration_ns(),
            "two sleeps cover the root"
        );
    }
}
