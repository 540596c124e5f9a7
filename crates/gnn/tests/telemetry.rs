//! Integration test: a short GCN training run must emit well-formed JSONL
//! telemetry — every line parses, epoch numbers are strictly monotone, and
//! every loss is finite.
//!
//! Kept as a single test in its own binary so the process-global `ses-obs`
//! capture buffer sees exactly one training run with no interleaving.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ses_data::{realworld, Profile, Splits};
use ses_gnn::{train_node_classifier, AdjView, Gcn, TrainConfig};
use ses_obs::json::Json;

#[test]
fn short_gcn_run_emits_well_formed_jsonl() {
    let _obs = ses_obs::force_enabled(true);
    ses_obs::sink::begin_capture();

    const EPOCHS: usize = 5;
    let mut rng = StdRng::seed_from_u64(7);
    let d = realworld::polblogs_like(Profile::Fast, &mut rng);
    let g = &d.graph;
    let adj = AdjView::of_graph(g);
    let splits = Splits::classification(g.n_nodes(), &mut rng);
    let mut gcn = Gcn::new(g.n_features(), 8, g.n_classes(), &mut rng);
    let cfg = TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        ..Default::default()
    };
    train_node_classifier(&mut gcn, g, &adj, &splits, &cfg).expect("training failed");

    let captured = ses_obs::sink::take_capture();

    let mut epoch_records = 0usize;
    let mut last_epoch: Option<f64> = None;
    for (lineno, line) in captured.lines().enumerate() {
        let v = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", lineno + 1));
        let obj = v.as_object().expect("every record is a JSON object");
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .expect("every record has a string `event`");
        assert!(
            obj.get("t_ms").and_then(Json::as_f64).is_some(),
            "line {}: missing t_ms",
            lineno + 1
        );
        if event != "epoch" {
            continue;
        }
        epoch_records += 1;
        assert_eq!(
            obj.get("phase").and_then(Json::as_str),
            Some("backbone"),
            "trainer epochs carry phase=backbone"
        );
        let epoch = obj
            .get("epoch")
            .and_then(Json::as_f64)
            .expect("epoch record has a numeric epoch");
        if let Some(prev) = last_epoch {
            assert!(
                epoch > prev,
                "epochs must be strictly monotone: {prev} -> {epoch}"
            );
        }
        last_epoch = Some(epoch);
        for key in ["loss", "val_acc", "epoch_ms"] {
            let val = obj
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("epoch record missing numeric `{key}`"));
            assert!(val.is_finite(), "`{key}` must be finite, got {val}");
        }
        // per-phase kernel breakdown is present and non-trivial
        let kernels = obj
            .get("kernels_ms")
            .and_then(Json::as_object)
            .expect("epoch record has a kernels_ms object");
        assert!(
            !kernels.is_empty(),
            "a training epoch must record at least one kernel span"
        );
    }
    assert_eq!(epoch_records, EPOCHS, "one epoch record per epoch");
}
