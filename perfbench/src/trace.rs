//! Spans of the traced run: kept in memory while it runs, written out
//! as one CSV file per workload when it ends.

use crate::timed::GemmSpan;
use std::io::Write as _;
use std::path::PathBuf;

/// One traced interval: layer boundary `name`, the request or step `id`
/// it belongs to, the span that caused it, and its interval in ns since
/// the trace epoch. GEMM spans carry their `(m, k, n)`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub shape: (usize, usize, usize),
}

impl Span {
    pub fn new(
        name: &'static str,
        id: u64,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            shape: (0, 0, 0),
        }
    }
}

/// Turns GEMM calls into spans named `name`, each attributed to the
/// `parents` span whose interval contains its midpoint (the engine
/// cannot see request ids, but one worker runs one parent at a time).
pub fn attribute(name: &'static str, gemms: &[GemmSpan], parents: &[Span]) -> Vec<Span> {
    let mut sorted: Vec<&Span> = parents.iter().collect();
    sorted.sort_by_key(|p| p.start_ns);
    gemms
        .iter()
        .map(|g| {
            let mid = g.start_ns / 2 + g.end_ns / 2;
            let at = sorted.partition_point(|p| p.start_ns <= mid);
            let parent = at
                .checked_sub(1)
                .map(|i| sorted[i])
                .filter(|p| mid <= p.end_ns);
            Span {
                name,
                id: parent.map_or(u64::MAX, |p| p.id),
                parent: parent.map_or("", |p| p.name),
                start_ns: g.start_ns,
                end_ns: g.end_ns,
                shape: (g.m, g.k, g.n),
            }
        })
        .collect()
}

/// Writes `spans` to `traces/<workload>.csv` beside this package's
/// manifest and returns the path.
pub fn write(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.csv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "span,id,parent,start_us,end_us,m,k,n")?;
    for s in spans {
        let id = if s.id == u64::MAX {
            String::new()
        } else {
            s.id.to_string()
        };
        writeln!(
            out,
            "{},{},{},{:.3},{:.3},{},{},{}",
            s.name,
            id,
            s.parent,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.shape.0,
            s.shape.1,
            s.shape.2
        )?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::CallKind;

    #[test]
    fn gemms_are_attributed_to_the_enclosing_parent() {
        let parents = [
            Span::new("service", 7, "request", 100, 200),
            Span::new("service", 3, "request", 0, 50),
        ];
        let call = |start_ns, end_ns| GemmSpan {
            kind: CallKind::Prepared,
            m: 1,
            k: 2,
            n: 3,
            start_ns,
            end_ns,
        };
        let spans = attribute(
            "gemm",
            &[call(10, 20), call(120, 180), call(60, 70)],
            &parents,
        );
        assert_eq!(spans[0].id, 3);
        assert_eq!(spans[1].id, 7);
        assert_eq!(spans[1].parent, "service");
        assert_eq!(spans[1].shape, (1, 2, 3));
        assert_eq!(spans[2].id, u64::MAX, "between parents: unattributed");
    }
}
