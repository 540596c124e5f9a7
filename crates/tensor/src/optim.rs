//! Parameters and the Adam optimiser.
//!
//! Parameters live *outside* the tape: each training step clones the current
//! value onto a fresh tape via [`Tape::leaf`], runs forward + backward, then
//! hands the gradient back to the optimiser.

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// A trainable parameter: the master value plus optimiser state slots.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Adam first-moment estimate.
    m: Matrix,
    /// Adam second-moment estimate.
    v: Matrix,
}

impl Param {
    /// Wraps an initial value as a parameter.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// Records this parameter on a tape as a gradient-requiring leaf.
    pub fn watch(&self, tape: &mut Tape) -> Var {
        tape.leaf(self.value.clone())
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.value.shape()
    }

    /// Adam moment buffers `(m, v)`, exposed read-only for checkpointing.
    pub fn moments(&self) -> (&Matrix, &Matrix) {
        (&self.m, &self.v)
    }

    /// Restores previously captured Adam moment buffers (checkpoint
    /// restore). Shapes must match the parameter value.
    pub fn set_moments(&mut self, m: Matrix, v: Matrix) {
        assert_eq!(
            m.shape(),
            self.value.shape(),
            "Param::set_moments: m shape mismatch"
        );
        assert_eq!(
            v.shape(),
            self.value.shape(),
            "Param::set_moments: v shape mismatch"
        );
        self.m = m;
        self.v = v;
    }
}

/// A set of parameters registered with an optimiser step.
pub trait Optimizer {
    /// Applies one update given `(param, grad)` pairs.
    fn step(&mut self, updates: &mut [(&mut Param, &Matrix)]);
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (for schedules / sensitivity sweeps).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba, 2015) with bias correction, the optimiser used
/// throughout the paper's experiments (lr = 3e-3).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Creates Adam with the given learning rate and default
    /// `(β₁, β₂, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
        }
    }

    /// Sets L2 weight decay (added to the raw gradient).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Restores the step counter (and with it the bias-correction schedule)
    /// from a checkpoint.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, updates: &mut [(&mut Param, &Matrix)]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (p, g) in updates.iter_mut() {
            assert_eq!(
                p.value.shape(),
                g.shape(),
                "Adam::step: grad shape mismatch"
            );
            let n = p.value.len();
            let pv = p.value.as_mut_slice();
            let pm = p.m.as_mut_slice();
            let psv = p.v.as_mut_slice();
            let gs = g.as_slice();
            for i in 0..n {
                let mut gi = gs[i];
                if self.weight_decay > 0.0 {
                    gi += self.weight_decay * pv[i];
                }
                pm[i] = self.beta1 * pm[i] + (1.0 - self.beta1) * gi;
                psv[i] = self.beta2 * psv[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = pm[i] / b1t;
                let vhat = psv[i] / b2t;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 with `opt`.
    fn quadratic_descent(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut p = Param::new(Matrix::scalar(0.0));
        for _ in 0..iters {
            let x = p.value.scalar_value();
            let grad = Matrix::scalar(2.0 * (x - 3.0));
            opt.step(&mut [(&mut p, &grad)]);
        }
        p.value.scalar_value()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = quadratic_descent(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-2, "x={x}");
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // First Adam step should move by ≈ lr regardless of gradient scale.
        let mut opt = Adam::new(0.05);
        let mut p = Param::new(Matrix::scalar(1.0));
        let grad = Matrix::scalar(123.0);
        opt.step(&mut [(&mut p, &grad)]);
        assert!((p.value.scalar_value() - (1.0 - 0.05)).abs() < 1e-4);
    }

    #[test]
    fn param_watch_roundtrip() {
        let p = Param::new(Matrix::row_vec(&[1.0, 2.0]));
        let mut t = Tape::new();
        let v = p.watch(&mut t);
        assert_eq!(t.value(v), &p.value);
        assert!(t.needs(v));
    }
}
