//! Reductions: full sums/means and per-row sums.

use super::{Op, Tape, Var};
use crate::matrix::Matrix;

impl Tape {
    /// Sum of all elements into a `1 × 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng)
    }

    /// Mean of all elements into a `1 × 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).mean());
        let ng = self.needs(a);
        self.push(v, Op::MeanAll(a), ng)
    }

    /// Per-row sums: `n × f → n × 1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let v = self.value(a).row_sums();
        let ng = self.needs(a);
        self.push(v, Op::RowSum(a), ng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let s = t.sum_all(a);
        assert_eq!(t.value(s).scalar_value(), 10.0);
        let m = t.mean_all(a);
        assert_eq!(t.value(m).scalar_value(), 2.5);
    }

    #[test]
    fn row_sum_shape_and_values() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let s = t.row_sum(a);
        assert_eq!(t.shape(s), (2, 1));
        assert_eq!(t.value(s).as_slice(), &[6.0, 15.0]);
    }
}
