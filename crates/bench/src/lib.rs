//! Experiment harness for the Dory–Parter reproduction.
//!
//! Each theorem-level claim of the paper maps to one experiment binary in
//! `src/bin/` (see `DESIGN.md` §5 for the index and `EXPERIMENTS.md` for
//! recorded results). This library provides the shared scaffolding: aligned
//! text tables, seeded RNGs, and fresh solver sessions. The one other
//! binary, `cc-bench-diff`, gates a perfbench result against its committed
//! baseline (`DESIGN.md` §13.5).

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

use cc_core::{Execution, Solver, SolverBuilder};
use cc_graphs::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An aligned text table for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A reproducible RNG for experiment `seed`.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A fresh scaled-profile session over `g`. Each experiment cell runs its
/// query first in a session of its own, so its rounds include building
/// every substrate it stands on.
pub fn session(g: &Graph, eps: f64, execution: Execution) -> Solver {
    SolverBuilder::new(g.clone())
        .eps(eps)
        .execution(execution)
        .build()
        .expect("valid parameters")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["128".into(), "1.5".into()]);
        t.row(vec!["1024".into(), "12.25".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("1024"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn rng_is_reproducible() {
        use rand::Rng;
        let a: u64 = rng(5).gen();
        let b: u64 = rng(5).gen();
        assert_eq!(a, b);
    }
}
