//! Engine configurations the conformance suites share: the one plan
//! walker's execution knobs — layout, tile width, exchange budget — as one
//! value, so a suite's grid is a list of these; and the driver-side join
//! the join conformance tests are held to.

#![allow(dead_code)]

use std::fmt;

use diablo_dataflow::{Context, HashPartitioner, Layout, DEFAULT_TILE_WIDTH};
use diablo_runtime::Value;

/// One engine configuration under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Engine {
    pub layout: Layout,
    /// Rows per column tile (read by the columnar layout only).
    pub tile_width: usize,
    /// The exchange budget; `None` is unbounded.
    pub memory_budget: Option<u64>,
}

impl Engine {
    /// The row layout, unbounded: the reference every other
    /// configuration is held byte-identical to.
    pub const ROW: Engine = Engine {
        layout: Layout::Row,
        tile_width: DEFAULT_TILE_WIDTH,
        memory_budget: None,
    };

    /// The default columnar layout, unbounded.
    pub const COLUMNAR: Engine = Engine {
        layout: Layout::Columnar,
        tile_width: DEFAULT_TILE_WIDTH,
        memory_budget: None,
    };

    /// This configuration with another tile width.
    pub const fn tile(self, tile_width: usize) -> Engine {
        Engine { tile_width, ..self }
    }

    /// This configuration with another exchange budget.
    pub const fn budget(self, memory_budget: Option<u64>) -> Engine {
        Engine {
            memory_budget,
            ..self
        }
    }

    /// True for the columnar layout.
    pub fn columnar(self) -> bool {
        self.layout == Layout::Columnar
    }

    /// A context of the given shape in this configuration — whatever
    /// `DIABLO_*` variables the suite runs under.
    pub fn context(self, workers: usize, partitions: usize) -> Context {
        let ctx = Context::new(workers, partitions)
            .with_layout(self.layout)
            .with_tile_width(self.tile_width);
        ctx.set_memory_budget(self.memory_budget);
        ctx
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.layout.name())?;
        if self.columnar() {
            write!(f, " tile {}", self.tile_width)?;
        }
        match self.memory_budget {
            Some(b) => write!(f, ", budget {b}"),
            None => write!(f, ", unbounded"),
        }
    }
}

/// The matches of an inner equi-join, computed on the driver by a nested
/// loop over collected `(key, row)` inputs: one `(key, left, right)` per
/// pair of rows whose keys are equal (`Value` equality), the key spelled
/// as the first left row of its group spells it. Listed in the order the
/// engine's join documents: hash buckets ascending (of `partitions`), then
/// left keys as first seen, then left × right rows in input order.
pub fn nested_loop_join(
    left: &[(Value, Value)],
    right: &[(Value, Value)],
    partitions: usize,
) -> Vec<(Value, Value, Value)> {
    let mut groups: Vec<(&Value, Vec<&Value>)> = Vec::new();
    for (k, row) in left {
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, rows)) => rows.push(row),
            None => groups.push((k, vec![row])),
        }
    }
    groups.sort_by_key(|(k, _)| HashPartitioner.partition(k, partitions));
    let mut out = Vec::new();
    for (k, lrows) in groups {
        for l in lrows {
            for (_, r) in right.iter().filter(|(rk, _)| rk == k) {
                out.push((k.clone(), l.clone(), r.clone()));
            }
        }
    }
    out
}
