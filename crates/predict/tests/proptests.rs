//! Property tests on the predictor stack: output hygiene (finite,
//! non-negative, exact horizon) and the padding invariant across
//! randomized series.

use proptest::prelude::*;
use spotweb_predict::{
    AliEldinPredictor, MovingAveragePredictor, NoisyPredictor, ReactivePredictor,
    SeasonalNaivePredictor, SeriesPredictor, SpotWebPredictor,
};

/// Random non-negative series with occasional spikes.
fn series(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..5_000.0, prop::bool::weighted(0.05)), len).prop_map(|v| {
        v.into_iter()
            .map(|(base, spike)| if spike { base * 3.0 } else { base })
            .collect()
    })
}

fn all_predictors() -> Vec<(&'static str, Box<dyn SeriesPredictor>)> {
    vec![
        ("spotweb", Box::new(SpotWebPredictor::new())),
        ("ali-eldin", Box::new(AliEldinPredictor::new())),
        ("reactive", Box::new(ReactivePredictor::new())),
        ("moving-avg", Box::new(MovingAveragePredictor::new(24))),
        ("seasonal", Box::new(SeasonalNaivePredictor::new(24))),
        (
            "noisy",
            Box::new(NoisyPredictor::new(ReactivePredictor::new(), 0.3, 1)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every predictor, at every history length, returns exactly the
    /// requested horizon of finite non-negative forecasts.
    #[test]
    fn outputs_always_sane(values in series(80), h in 1usize..12) {
        for (name, mut p) in all_predictors() {
            for v in &values {
                p.observe(*v);
                let f = p.predict(h);
                prop_assert_eq!(f.len(), h, "{} horizon", name);
                for x in &f {
                    prop_assert!(x.is_finite() && *x >= 0.0, "{name}: bad forecast {x}");
                }
            }
            prop_assert_eq!(p.observations(), values.len());
        }
    }

    /// The SpotWeb padding invariant: padded forecasts dominate the
    /// point forecasts at every horizon step.
    #[test]
    fn padding_dominates_point_forecast(values in series(420), h in 1usize..8) {
        let mut p = SpotWebPredictor::new();
        for v in &values {
            p.observe(*v);
        }
        let padded = p.predict(h);
        let point = p.point_forecast(h);
        for (u, pt) in padded.iter().zip(&point) {
            // Point forecasts are clamped ≥ 0 and the CI upper bound
            // adds a non-negative margin, so padded ≥ point always.
            prop_assert!(*u >= pt - 1e-9, "padded {u} below point {pt}");
        }
    }

    /// Determinism: identical observation streams produce identical
    /// forecasts.
    #[test]
    fn predictors_are_deterministic(values in series(100), h in 1usize..6) {
        for ((_, mut a), (_, mut b)) in all_predictors().into_iter().zip(all_predictors()) {
            for v in &values {
                a.observe(*v);
                b.observe(*v);
            }
            prop_assert_eq!(a.predict(h), b.predict(h));
        }
    }
}
