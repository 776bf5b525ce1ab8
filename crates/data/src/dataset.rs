//! In-memory dataset container.

use fedval_linalg::Matrix;

/// A supervised classification dataset: an `n × d` feature matrix plus
/// integer labels in `0..num_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating that shapes agree and every label is in
    /// range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Result<Self, String> {
        if features.rows() != labels.len() {
            return Err(format!(
                "feature rows ({}) != label count ({})",
                features.rows(),
                labels.len()
            ));
        }
        if num_classes == 0 {
            return Err("num_classes must be positive".to_string());
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(format!("label {bad} out of range 0..{num_classes}"));
        }
        Ok(Dataset {
            features,
            labels,
            num_classes,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable feature matrix (used by the noise injectors).
    pub fn features_mut(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Mutable labels (used by the label-flip injector).
    pub fn labels_mut(&mut self) -> &mut [usize] {
        &mut self.labels
    }

    /// Feature row of example `i`.
    pub fn example(&self, i: usize) -> (&[f64], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Builds a new dataset from a subset of example indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let d = self.dim();
        let mut feat = Matrix::zeros(indices.len(), d);
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &idx) in indices.iter().enumerate() {
            feat.row_mut(row).copy_from_slice(self.features.row(idx));
            labels.push(self.labels[idx]);
        }
        Dataset {
            features: feat,
            labels,
            num_classes: self.num_classes,
        }
    }

    /// [`subset`](Dataset::subset) into a caller-provided dataset,
    /// reusing its buffers — the allocation-free form the minibatch SGD
    /// loop calls once per step. `out`'s previous shape is irrelevant;
    /// it is resized to `indices.len() × self.dim()`.
    pub fn subset_into(&self, indices: &[usize], out: &mut Dataset) {
        let d = self.dim();
        out.num_classes = self.num_classes;
        // Every row is copied below; skip the zero-fill pass.
        out.features.resize_for_overwrite(indices.len(), d);
        out.labels.clear();
        for (row, &idx) in indices.iter().enumerate() {
            out.features
                .row_mut(row)
                .copy_from_slice(self.features.row(idx));
            out.labels.push(self.labels[idx]);
        }
    }

    /// Per-class example counts (useful for partition diagnostics).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Concatenates several datasets that share schema.
    pub fn concat(parts: &[&Dataset]) -> Result<Dataset, String> {
        let first = parts.first().ok_or("concat of zero datasets")?;
        let d = first.dim();
        let c = first.num_classes;
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut feat = Matrix::zeros(total, d);
        let mut labels = Vec::with_capacity(total);
        let mut row = 0;
        for p in parts {
            if p.dim() != d || p.num_classes != c {
                return Err("concat schema mismatch".to_string());
            }
            for i in 0..p.len() {
                feat.row_mut(row).copy_from_slice(p.features.row(i));
                labels.push(p.labels[i]);
                row += 1;
            }
        }
        Ok(Dataset {
            features: feat,
            labels,
            num_classes: c,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let f = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0], &[4.0, 5.0]]).unwrap();
        Dataset::new(f, vec![0, 1, 0], 2).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        let f = Matrix::zeros(2, 3);
        assert!(Dataset::new(f.clone(), vec![0], 2).is_err());
        assert!(Dataset::new(f.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::new(f, vec![0, 1], 0).is_err());
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 2);
        let (x, y) = d.example(1);
        assert_eq!(x, &[2.0, 3.0]);
        assert_eq!(y, 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_picks_rows_in_order() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.example(0).0, &[4.0, 5.0]);
        assert_eq!(s.example(1).0, &[0.0, 1.0]);
        assert_eq!(s.labels(), &[0, 0]);
    }

    #[test]
    fn subset_into_matches_subset_and_reuses_buffers() {
        let d = tiny();
        let mut out = d.subset(&[]);
        d.subset_into(&[2, 0], &mut out);
        let expect = d.subset(&[2, 0]);
        assert_eq!(out.features().as_slice(), expect.features().as_slice());
        assert_eq!(out.labels(), expect.labels());
        assert_eq!(out.num_classes(), expect.num_classes());
        // Refill with a different selection: buffers are recycled.
        d.subset_into(&[1], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.example(0).0, &[2.0, 3.0]);
    }

    #[test]
    fn class_counts_counts() {
        assert_eq!(tiny().class_counts(), vec![2, 1]);
    }

    #[test]
    fn concat_appends() {
        let d = tiny();
        let c = Dataset::concat(&[&d, &d]).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.example(3).0, &[0.0, 1.0]);
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let d = tiny();
        let other = Dataset::new(Matrix::zeros(1, 3), vec![0], 2).unwrap();
        assert!(Dataset::concat(&[&d, &other]).is_err());
        assert!(Dataset::concat(&[]).is_err());
    }
}
