//! Dense linear algebra: LU factorization with partial pivoting.
//!
//! Circuits in this workspace have at most a few dozen unknowns, where a
//! dense solver beats any sparse machinery. Implemented in-repo to keep the
//! workspace free of numerical dependencies.

/// A dense row-major matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Adds `v` to entry `(i, j)` — the natural operation for MNA stamps.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Solves `A x = b` in place via LU with partial pivoting; `b` becomes
    /// the solution. The matrix is destroyed.
    ///
    /// Elimination skips the exact zeros of each pivot row: MNA matrices
    /// are mostly zeros, and subtracting `factor · 0` leaves an entry as it
    /// was (for a finite factor and any entry but −0.0, which assembly
    /// never produces). Every other operation runs in the same order as a
    /// dense elimination, so the result is the dense result bit for bit.
    /// Back substitution skips nothing: `sum − 0·x` turns a −0.0 sum into
    /// +0.0 when `x < 0`, and the right-hand side can hold −0.0.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when a pivot collapses below 1e-300
    /// (structurally singular or hopelessly ill-conditioned system).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), SingularMatrix> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Decompose with partial pivoting, applying row swaps to b as we go.
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut max = self.get(k, k).abs();
            for i in (k + 1)..n {
                let v = self.get(i, k).abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(SingularMatrix { column: k });
            }
            debug_assert!(
                max.is_finite(),
                "non-finite pivot {max} in column {k}: the stamped matrix is corrupt"
            );
            let (above, below) = self.data.split_at_mut((k + 1) * n);
            let pivot_row = &mut above[k * n..];
            if p != k {
                let q = (p - k - 1) * n;
                pivot_row.swap_with_slice(&mut below[q..q + n]);
                b.swap(k, p);
            }
            let pivot = pivot_row[k];
            let pivot_tail = &pivot_row[k + 1..];
            for (i, row) in ((k + 1)..n).zip(below.chunks_exact_mut(n)) {
                let factor = row[k] / pivot;
                // pvtm-lint: allow(no-float-eq) exact structural zero skips a no-op elimination row; rounding residue must still be eliminated
                if factor == 0.0 {
                    continue;
                }
                row[k] = 0.0;
                for (a, &u) in row[k + 1..].iter_mut().zip(pivot_tail) {
                    // pvtm-lint: allow(no-float-eq) an exact zero in the pivot row leaves the entry unchanged; any other value is eliminated
                    if u != 0.0 {
                        *a -= factor * u;
                    }
                }
                b[i] -= factor * b[k];
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &self.data[i * n..(i + 1) * n];
            let mut sum = b[i];
            for (&u, &x) in row[i + 1..].iter().zip(&b[i + 1..]) {
                sum -= u * x;
            }
            b[i] = sum / row[i];
            debug_assert!(
                b[i].is_finite(),
                "non-finite solution component {} at row {i}: NaN/Inf leaked through the \
                 factorization",
                b[i]
            );
        }
        Ok(())
    }
}

/// Error: the system matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which elimination found no usable pivot.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular system matrix at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        m.solve_in_place(&mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [4/5, 7/5]
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut b = vec![3.0, 5.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] => x = [3, 2]
        let mut m = Matrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        assert!(m.solve_in_place(&mut b).is_err());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_system_residual_is_tiny() {
        // Deterministic pseudo-random fill; verify A·x ≈ b.
        let n = 12;
        let mut m = Matrix::zeros(n);
        let mut state = 0x1234_5678_u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let v = rnd() + if i == j { 4.0 } else { 0.0 };
                m.set(i, j, v);
                a.set(i, j, v);
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let mut x = b.clone();
        m.solve_in_place(&mut x).unwrap();
        for i in 0..n {
            let mut dot = 0.0;
            for j in 0..n {
                dot += a.get(i, j) * x[j];
            }
            assert!((dot - b[i]).abs() < 1e-10, "row {i} residual");
        }
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut m = Matrix::zeros(4);
        m.set(2, 2, 5.0);
        m.clear();
        assert_eq!(m.n(), 4);
        assert_eq!(m.get(2, 2), 0.0);
    }
}
