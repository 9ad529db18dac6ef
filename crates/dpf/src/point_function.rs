//! Point functions `P_{α,β}` — what a DPF secret-shares.

/// A point function over a `u64` domain with a boolean output.
///
/// `P_{α,β}(x) = β` if `x = α` and `0` otherwise (§2.3). In PIR, `α` is the
/// index of the record the client wants and `β = 1` so the function acts as
/// a one-hot selector over the database.
///
/// # Example
///
/// ```
/// use impir_dpf::point_function::PointFunction;
///
/// let p = PointFunction::new(5, true);
/// assert!(p.eval(5));
/// assert!(!p.eval(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointFunction {
    alpha: u64,
    beta: bool,
}

impl PointFunction {
    /// Creates the point function that maps `alpha` to `beta` and everything
    /// else to `false`.
    #[must_use]
    pub fn new(alpha: u64, beta: bool) -> Self {
        PointFunction { alpha, beta }
    }

    /// The one-hot selector for PIR index `alpha` (i.e. `β = 1`).
    #[must_use]
    pub fn selector(alpha: u64) -> Self {
        PointFunction { alpha, beta: true }
    }

    /// The distinguished input `α`.
    #[must_use]
    pub fn alpha(&self) -> u64 {
        self.alpha
    }

    /// The output `β` at the distinguished input.
    #[must_use]
    pub fn beta(&self) -> bool {
        self.beta
    }

    /// Evaluates the point function at `x`.
    #[must_use]
    pub fn eval(&self, x: u64) -> bool {
        x == self.alpha && self.beta
    }

    /// Materialises the function as a plain one-hot vector over a domain of
    /// `domain_size` entries.
    ///
    /// This is the query vector of the paper's Figure 1/2 before secret
    /// sharing — only practical for small domains and used by tests.
    #[must_use]
    pub fn to_onehot(&self, domain_size: usize) -> Vec<bool> {
        (0..domain_size as u64).map(|x| self.eval(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_is_one_at_alpha_only() {
        let p = PointFunction::selector(3);
        let hot = p.to_onehot(8);
        assert_eq!(hot.iter().filter(|b| **b).count(), 1);
        assert!(hot[3]);
    }

    #[test]
    fn beta_false_is_the_zero_function() {
        let p = PointFunction::new(3, false);
        assert!(p.to_onehot(8).iter().all(|b| !b));
    }

    #[test]
    fn accessors_return_construction_values() {
        let p = PointFunction::new(42, true);
        assert_eq!(p.alpha(), 42);
        assert!(p.beta());
    }
}
