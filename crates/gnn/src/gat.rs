//! Graph attention network (Veličković et al., 2018), multi-head. The
//! paper's "FusedGAT" baseline (Zhang et al., MLSys 2022) is an execution
//! strategy for this same computation, not a different model, so it has no
//! second forward here.

use rand::rngs::StdRng;
use ses_tensor::{init, Matrix, Param, Tape, Var};

use crate::adjview::AdjView;
use crate::encoder::{restore_params, snapshot_params, Encoder, EncoderOutput, ForwardCtx};

/// One GAT layer's parameters for a single head.
#[derive(Debug, Clone)]
struct Head {
    w: Param,
    a_src: Param,
    a_dst: Param,
}

impl Head {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: Param::new(init::xavier_uniform(in_dim, out_dim, rng)),
            a_src: Param::new(init::xavier_uniform(out_dim, 1, rng)),
            a_dst: Param::new(init::xavier_uniform(out_dim, 1, rng)),
        }
    }
}

/// Two-layer multi-head GAT. Layer 1 concatenates `heads` heads; layer 2 is
/// a single head producing logits. Per-edge attention:
/// `α = softmax_dst(LeakyReLU(a_dstᵀ Wh_dst + a_srcᵀ Wh_src))`, optionally
/// multiplied by an external edge mask (the SES structure mask).
#[derive(Debug, Clone)]
pub struct Gat {
    layer1: Vec<Head>,
    layer2: Head,
    b1: Param,
    b2: Param,
    hidden_per_head: usize,
    out: usize,
    dropout: f32,
}

impl Gat {
    /// Creates a GAT with `heads` first-layer heads; `hidden` is the total
    /// first-layer width (must be divisible by `heads`).
    pub fn new(in_dim: usize, hidden: usize, out: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            heads >= 1 && hidden.is_multiple_of(heads),
            "hidden must be divisible by heads"
        );
        let per = hidden / heads;
        Self {
            layer1: (0..heads).map(|_| Head::new(in_dim, per, rng)).collect(),
            layer2: Head::new(hidden, out, rng),
            b1: Param::new(Matrix::zeros(1, hidden)),
            b2: Param::new(Matrix::zeros(1, out)),
            hidden_per_head: per,
            out,
            dropout: 0.5,
        }
    }

    /// Sets dropout probability (default 0.5).
    pub fn with_dropout(mut self, p: f32) -> Self {
        self.dropout = p;
        self
    }

    /// One attention layer over `x`, returning the aggregated features.
    fn attention_layer(
        tape: &mut Tape,
        adj: &AdjView,
        x: Var,
        w: Var,
        a_src: Var,
        a_dst: Var,
        edge_mask: Option<Var>,
    ) -> Var {
        let hw = tape.matmul(x, w);
        let s_src = tape.matmul(hw, a_src);
        let s_dst = tape.matmul(hw, a_dst);
        let g_dst = tape.gather_rows(s_dst, adj.entry_rows().clone());
        let g_src = tape.gather_rows(s_src, adj.entry_cols().clone());
        let scores = tape.add(g_dst, g_src);
        let scores = tape.leaky_relu(scores, 0.2);
        let mut att = tape.edge_softmax(adj.structure().clone(), scores);
        if let Some(m) = edge_mask {
            att = tape.mul(att, m);
        }
        tape.spmm(adj.structure().clone(), att, hw)
    }

    /// Exposes the first-layer, first-head attention weights (used by the
    /// `ATT` explanation baseline): returns per-entry attention over
    /// `adj.structure()`.
    pub fn attention_weights(&self, adj: &AdjView, x: &Matrix) -> Vec<f32> {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let head = &self.layer1[0];
        let w = tape.constant(head.w.value.clone());
        let a_src = tape.constant(head.a_src.value.clone());
        let a_dst = tape.constant(head.a_dst.value.clone());
        let hw = tape.matmul(xv, w);
        let s_src = tape.matmul(hw, a_src);
        let s_dst = tape.matmul(hw, a_dst);
        let g_dst = tape.gather_rows(s_dst, adj.entry_rows().clone());
        let g_src = tape.gather_rows(s_src, adj.entry_cols().clone());
        let scores = tape.add(g_dst, g_src);
        let scores = tape.leaky_relu(scores, 0.2);
        let att = tape.edge_softmax(adj.structure().clone(), scores);
        tape.value(att).as_slice().to_vec()
    }
}

impl Encoder for Gat {
    fn forward(&self, ctx: &mut ForwardCtx<'_>) -> EncoderOutput {
        let tape = &mut *ctx.tape;
        let mut param_vars = Vec::with_capacity(self.layer1.len() * 3 + 5);

        // layer 1: concatenated heads
        let mut head_outputs = Vec::with_capacity(self.layer1.len());
        for head in &self.layer1 {
            let w = head.w.watch(tape);
            let a_src = head.a_src.watch(tape);
            let a_dst = head.a_dst.watch(tape);
            param_vars.extend([w, a_src, a_dst]);
            head_outputs.push(Self::attention_layer(
                tape,
                ctx.adj,
                ctx.x,
                w,
                a_src,
                a_dst,
                ctx.edge_mask,
            ));
        }
        let mut cat = head_outputs[0];
        for &h in &head_outputs[1..] {
            cat = tape.concat_cols(cat, h);
        }
        let b1 = self.b1.watch(tape);
        param_vars.push(b1);
        let pre = tape.add_row_broadcast(cat, b1);
        let hidden = tape.elu(pre, 1.0);

        let h = if ctx.train && self.dropout > 0.0 {
            let mask = ses_tensor::dropout_mask(
                ctx.adj.n_nodes() * self.hidden_dim(),
                self.dropout,
                ctx.rng,
            );
            tape.dropout(hidden, mask)
        } else {
            hidden
        };

        // layer 2: single head to logits
        let w = self.layer2.w.watch(tape);
        let a_src = self.layer2.a_src.watch(tape);
        let a_dst = self.layer2.a_dst.watch(tape);
        let b2 = self.b2.watch(tape);
        param_vars.extend([w, a_src, a_dst, b2]);
        let out = Self::attention_layer(tape, ctx.adj, h, w, a_src, a_dst, ctx.edge_mask);
        let logits = tape.add_row_broadcast(out, b2);

        EncoderOutput {
            hidden,
            logits,
            param_vars,
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = Vec::new();
        for h in &mut self.layer1 {
            v.push(&mut h.w);
            v.push(&mut h.a_src);
            v.push(&mut h.a_dst);
        }
        v.push(&mut self.b1);
        v.push(&mut self.layer2.w);
        v.push(&mut self.layer2.a_src);
        v.push(&mut self.layer2.a_dst);
        v.push(&mut self.b2);
        v
    }

    fn param_values(&self) -> Vec<Matrix> {
        let mut refs: Vec<&Param> = Vec::new();
        for h in &self.layer1 {
            refs.push(&h.w);
            refs.push(&h.a_src);
            refs.push(&h.a_dst);
        }
        refs.push(&self.b1);
        refs.push(&self.layer2.w);
        refs.push(&self.layer2.a_src);
        refs.push(&self.layer2.a_dst);
        refs.push(&self.b2);
        snapshot_params(&refs)
    }

    fn restore(&mut self, snapshot: &[Matrix]) {
        restore_params(&mut self.params_mut(), snapshot);
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_per_head * self.layer1.len()
    }

    fn out_dim(&self) -> usize {
        self.out
    }

    fn name(&self) -> &'static str {
        "GAT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ses_graph::Graph;

    fn setup() -> (Graph, AdjView, StdRng) {
        let rng = StdRng::seed_from_u64(2);
        let g = Graph::new(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            Matrix::from_vec(5, 3, (0..15).map(|x| (x as f32).sin()).collect()),
            vec![0, 1, 0, 1, 0],
        );
        let adj = AdjView::of_graph(&g);
        (g, adj, rng)
    }

    #[test]
    fn forward_shapes_multihead() {
        let (g, adj, mut rng) = setup();
        let gat = Gat::new(3, 8, 2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let mut ctx = ForwardCtx {
            tape: &mut tape,
            adj: &adj,
            x,
            edge_mask: None,
            train: false,
            rng: &mut rng,
        };
        let out = gat.forward(&mut ctx);
        assert_eq!(tape.shape(out.hidden), (5, 8));
        assert_eq!(tape.shape(out.logits), (5, 2));
        assert_eq!(out.param_vars.len(), 4 * 3 + 1 + 3 + 1);
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let (g, adj, mut rng) = setup();
        let gat = Gat::new(3, 4, 2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(g.features().clone());
        let mut ctx = ForwardCtx {
            tape: &mut tape,
            adj: &adj,
            x,
            edge_mask: None,
            train: false,
            rng: &mut rng,
        };
        let out = gat.forward(&mut ctx);
        let labels = std::sync::Arc::new(g.labels().to_vec());
        let idx = std::sync::Arc::new((0..5).collect::<Vec<_>>());
        let loss = tape.cross_entropy_masked(out.logits, labels, idx);
        tape.backward(loss);
        for (i, &pv) in out.param_vars.iter().enumerate() {
            assert!(tape.grad(pv).is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn attention_weights_normalised_per_destination() {
        let (g, adj, mut rng) = setup();
        let gat = Gat::new(3, 8, 2, 2, &mut rng);
        let att = gat.attention_weights(&adj, g.features());
        assert_eq!(att.len(), adj.nnz());
        for r in 0..adj.n_nodes() {
            let s: f32 = adj.structure().row_range(r).map(|p| att[p]).sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} attention sums to {s}");
        }
    }
}
