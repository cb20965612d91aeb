//! Dense row-major matrix and vector containers.
//!
//! [`Matrix<T>`] is the workhorse container for BEM system matrices,
//! MNA stamps, and S-parameter blocks. It is deliberately simple: row-major
//! storage, `O(1)` indexing, and the handful of BLAS-2/3 style operations the
//! toolkit needs (`matmul`, `matvec`, transpose, slicing of sub-blocks).

use crate::Scalar;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense vector; plain `Vec<T>` alias used for readability in signatures.
pub type Vector<T> = Vec<T>;

/// A dense, row-major matrix over a [`Scalar`] type.
///
/// # Examples
///
/// ```
/// use pdn_num::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let m: pdn_num::Matrix<f64> = pdn_num::Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    ///
    /// # Examples
    ///
    /// ```
    /// let h = pdn_num::Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(h[(0, 0)], 1.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrowed view of the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the raw row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Owned copy of column `j`.
    pub fn col(&self, j: usize) -> Vector<T> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate-transposed copy (equals [`transpose`](Self::transpose) for
    /// real matrices).
    pub fn hermitian_transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == T::zero() {
                    continue;
                }
                let orow = other.row(k);
                let crow = out.row_mut(i);
                for (cij, &bkj) in crow.iter_mut().zip(orow) {
                    *cij += a * bkj;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &[T]) -> Vector<T> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .fold(T::zero(), |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Extracts the sub-matrix at the given row and column index sets.
    ///
    /// Used heavily by the Kron-reduction code in `pdn-extract`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix<T> {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Maximum absolute entry (`∞`-norm of the flattened data).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.abs() * x.abs())
            .sum::<f64>()
            .sqrt()
    }

    /// The symmetry defect `max |A - Aᵀ|`; zero for symmetric matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetry_defect(&self) -> f64 {
        assert!(self.is_square(), "symmetry_defect requires a square matrix");
        let mut d = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                d = d.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        d
    }

    /// Converts entry-wise through `f`, e.g. a real matrix to complex.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl Matrix<f64> {
    /// Promotes a real matrix to a complex one.
    ///
    /// # Examples
    ///
    /// ```
    /// use pdn_num::{c64, Matrix};
    /// let m = Matrix::identity(2).to_complex();
    /// assert_eq!(m[(0, 0)], c64::ONE);
    /// ```
    pub fn to_complex(&self) -> Matrix<crate::c64> {
        self.map(crate::c64::from_re)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, o: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), o.shape(), "matrix add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&o.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, o: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), o.shape(), "matrix sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&o.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Scalar> Neg for &Matrix<T> {
    type Output = Matrix<T>;
    fn neg(self) -> Matrix<T> {
        self.scale(-T::one())
    }
}

impl<T: Scalar> Mul for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, o: &Matrix<T>) -> Matrix<T> {
        self.matmul(o)
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>14} ", self[(i, j)].to_string())?;
            }
            writeln!(f, "{}", if self.cols > 8 { " ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics on length mismatch.
///
/// # Examples
///
/// ```
/// assert_eq!(pdn_num::matrix::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).fold(T::zero(), |acc, (&x, &y)| acc + x * y)
}

/// `a + s·b` element-wise.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn axpy<T: Scalar>(a: &[T], s: T, b: &[T]) -> Vector<T> {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + s * y).collect()
}

/// Euclidean norm of a vector.
pub fn norm2<T: Scalar>(a: &[T]) -> f64 {
    a.iter().map(|x| x.abs() * x.abs()).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, c64};

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(4, 4, |i, j| ((i + 1) * (j + 2)) as f64);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let y = a.matvec(&x);
        let xm = Matrix::from_fn(4, 1, |i, _| x[i]);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert!(approx_eq(y[i], ym[(i, 0)], 1e-13));
        }
    }

    #[test]
    fn complex_matmul() {
        let a = Matrix::from_rows(&[&[c64::I, c64::ONE], &[c64::ZERO, c64::I]]);
        let sq = a.matmul(&a);
        // [[i,1],[0,i]]^2 = [[-1, 2i],[0,-1]]
        assert_eq!(sq[(0, 0)], c64::new(-1.0, 0.0));
        assert_eq!(sq[(0, 1)], c64::new(0.0, 2.0));
        assert_eq!(sq[(1, 1)], c64::new(-1.0, 0.0));
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let s = a.submatrix(&[1, 3], &[0, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[10.0, 12.0], &[30.0, 32.0]]));
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let a = Matrix::from_rows(&[&[c64::new(1.0, 2.0)]]);
        assert_eq!(a.hermitian_transpose()[(0, 0)], c64::new(1.0, -2.0));
    }

    #[test]
    fn symmetry_defect_detects_asymmetry() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        assert_eq!(s.symmetry_defect(), 0.0);
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 5.0]]);
        assert!(approx_eq(a.symmetry_defect(), 0.5, 1e-15));
    }

    #[test]
    fn add_sub_neg() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);
        let s = &a + &b;
        assert_eq!(s, Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]));
        let d = &s - &b;
        assert_eq!(d, a);
        let n = -&a;
        assert_eq!(n[(1, 1)], -4.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let v = axpy(&[1.0, 1.0], 2.0, &[3.0, -1.0]);
        assert_eq!(v, vec![7.0, -1.0]);
        assert!(approx_eq(norm2(&[3.0, 4.0]), 5.0, 1e-15));
    }

    #[test]
    fn from_diag_and_col() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.col(1), vec![0.0, 2.0, 0.0]);
        assert_eq!(d[(2, 2)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
