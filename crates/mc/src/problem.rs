//! Sparse observed-entry store for the completion problem.

use std::collections::HashMap;

/// A partially observed matrix with `num_rows` rows (training rounds) and
/// columns keyed by arbitrary `u64` keys (subset bitmasks). Columns are
/// densified in first-seen order so the solvers can index factor rows
/// directly.
#[derive(Debug, Clone, Default)]
pub struct CompletionProblem {
    num_rows: usize,
    col_keys: Vec<u64>,
    key_to_col: HashMap<u64, usize>,
    /// Flat entries `(row, col, value)`.
    entries: Vec<(usize, usize, f64)>,
    /// Per-row entry indices.
    row_adj: Vec<Vec<usize>>,
    /// Per-column entry indices.
    col_adj: Vec<Vec<usize>>,
}

impl CompletionProblem {
    /// Creates an empty problem with `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        CompletionProblem {
            num_rows,
            col_keys: Vec::new(),
            key_to_col: HashMap::new(),
            entries: Vec::new(),
            row_adj: vec![Vec::new(); num_rows],
            col_adj: Vec::new(),
        }
    }

    /// Registers a column key without adding an observation (a column that
    /// exists in the factor model but has no data is pulled to zero by the
    /// regularizer). Returns its dense index.
    pub fn ensure_column(&mut self, key: u64) -> usize {
        if let Some(&c) = self.key_to_col.get(&key) {
            return c;
        }
        let c = self.col_keys.len();
        self.col_keys.push(key);
        self.key_to_col.insert(key, c);
        self.col_adj.push(Vec::new());
        c
    }

    /// Adds an observation `value` at `(row, key)`. Duplicate observations
    /// of the same cell are allowed (they act as repeated measurements and
    /// the least-squares solution averages them).
    pub fn add_observation(&mut self, row: usize, key: u64, value: f64) {
        assert!(row < self.num_rows, "row {row} out of range");
        assert!(value.is_finite(), "observation must be finite");
        let col = self.ensure_column(key);
        let idx = self.entries.len();
        self.entries.push((row, col, value));
        self.row_adj[row].push(idx);
        self.col_adj[col].push(idx);
    }

    /// Adds a batch of `(row, key, value)` observations in iteration
    /// order — the natural sink for a utility-oracle batch evaluation
    /// replayed off its plan. Column densification order (first-seen)
    /// follows the iterator, so a deterministic iterator yields a
    /// deterministic problem.
    pub fn add_observations<I>(&mut self, observations: I)
    where
        I: IntoIterator<Item = (usize, u64, f64)>,
    {
        let iter = observations.into_iter();
        let (lower, _) = iter.size_hint();
        self.entries.reserve(lower);
        for (row, key, value) in iter {
            self.add_observation(row, key, value);
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of registered columns.
    pub fn num_cols(&self) -> usize {
        self.col_keys.len()
    }

    /// Number of observations.
    pub fn num_observations(&self) -> usize {
        self.entries.len()
    }

    /// Dense column index for `key`, if registered.
    pub fn column_index(&self, key: u64) -> Option<usize> {
        self.key_to_col.get(&key).copied()
    }

    /// Column key at dense index `col`.
    pub fn column_key(&self, col: usize) -> u64 {
        self.col_keys[col]
    }

    /// All observations as `(row, col, value)`.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Entry indices observed in `row`.
    pub fn row_entries(&self, row: usize) -> &[usize] {
        &self.row_adj[row]
    }

    /// Entry indices observed in `col`.
    pub fn col_entries(&self, col: usize) -> &[usize] {
        &self.col_adj[col]
    }

    /// `true` when every registered column has at least one observation —
    /// the practical form of the paper's Assumption 1 (a never-observed
    /// column cannot be recovered, only regularized to zero).
    pub fn every_column_observed(&self) -> bool {
        self.col_adj.iter().all(|c| !c.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_densify_in_first_seen_order() {
        let mut p = CompletionProblem::new(3);
        p.add_observation(0, 0b101, 1.0);
        p.add_observation(1, 0b010, 2.0);
        p.add_observation(2, 0b101, 3.0);
        assert_eq!(p.num_cols(), 2);
        assert_eq!(p.column_index(0b101), Some(0));
        assert_eq!(p.column_index(0b010), Some(1));
        assert_eq!(p.column_key(0), 0b101);
        assert_eq!(p.column_index(0b111), None);
    }

    #[test]
    fn adjacency_tracks_entries() {
        let mut p = CompletionProblem::new(2);
        p.add_observation(0, 7, 1.0);
        p.add_observation(0, 9, 2.0);
        p.add_observation(1, 7, 3.0);
        assert_eq!(p.row_entries(0), &[0, 1]);
        assert_eq!(p.row_entries(1), &[2]);
        assert_eq!(p.col_entries(0), &[0, 2]); // key 7
        assert_eq!(p.num_observations(), 3);
    }

    #[test]
    fn bulk_add_matches_sequential_add() {
        let obs = [(0usize, 7u64, 1.0), (0, 9, 2.0), (1, 7, 3.0)];
        let mut bulk = CompletionProblem::new(2);
        bulk.add_observations(obs);
        let mut seq = CompletionProblem::new(2);
        for (r, k, v) in obs {
            seq.add_observation(r, k, v);
        }
        assert_eq!(bulk.entries(), seq.entries());
        assert_eq!(bulk.num_cols(), seq.num_cols());
        assert_eq!(bulk.column_key(0), seq.column_key(0));
    }

    #[test]
    fn ensure_column_without_observation() {
        let mut p = CompletionProblem::new(1);
        let c = p.ensure_column(42);
        assert_eq!(c, 0);
        assert_eq!(p.num_cols(), 1);
        assert!(!p.every_column_observed());
        p.add_observation(0, 42, 1.0);
        assert!(p.every_column_observed());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_row() {
        let mut p = CompletionProblem::new(1);
        p.add_observation(1, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_value() {
        let mut p = CompletionProblem::new(1);
        p.add_observation(0, 0, f64::NAN);
    }
}
