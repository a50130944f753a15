//! Regression test: a panicking UDAF inside the sketch fold must surface as
//! a driver error, not abort the process. The fold once joined worker
//! threads with `.unwrap()` / `.expect(...)`, so a poisoned accumulator
//! took the whole process down; today the driver's unwind barrier around
//! the operator tree is what contains it.

use iolap_core::{DriverError, IolapConfig, IolapDriver};
use iolap_engine::aggregate::{Accumulator, Udaf};
use iolap_engine::{EngineError, FunctionRegistry};
use iolap_relation::{Catalog, DataType, Relation, Schema, Value};
use std::sync::Arc;

/// An accumulator that panics the moment it sees a value — the stand-in for
/// any UDAF with a latent bug (overflow, failed invariant, poisoned state).
#[derive(Clone, Debug, Default)]
struct PoisonAcc;

impl Accumulator for PoisonAcc {
    fn update(&mut self, _v: &Value, _weight: f64) {
        panic!("poisoned UDAF: invariant violated");
    }
    fn merge(&mut self, _other: &dyn Accumulator) -> Result<(), EngineError> {
        Ok(())
    }
    fn output(&self, _scale: f64) -> Value {
        Value::Null
    }
    fn boxed_clone(&self) -> Box<dyn Accumulator> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Clone, Copy, Debug)]
struct Poison;

impl Udaf for Poison {
    fn name(&self) -> &str {
        "POISON"
    }
    fn accumulator(&self) -> Box<dyn Accumulator> {
        Box::new(PoisonAcc)
    }
}

fn catalog(n: usize) -> Catalog {
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]);
    let rows = (0..n)
        .map(|i| vec![Value::Int(i as i64), Value::Float(i as f64)])
        .collect();
    let mut c = Catalog::new();
    c.register("t", Relation::from_values(schema, rows));
    c
}

#[test]
fn panicking_udaf_in_parallel_fold_is_an_error_not_an_abort() {
    // Panics print traces by default; silence them for this binary — the
    // panics are the point of the test.
    std::panic::set_hook(Box::new(|_| {}));

    let cat = catalog(64);
    let mut registry = FunctionRegistry::with_builtins();
    registry.register_udaf(Arc::new(Poison));

    // One 64-row batch: the first row folded hits the poisoned accumulator.
    let config = IolapConfig::with_batches(1).trials(8).seed(1);
    let mut driver = IolapDriver::from_sql("SELECT POISON(x) FROM t", &cat, &registry, "t", config)
        .expect("planning a POISON aggregate must succeed");

    let step = driver.step().expect("one batch scheduled");
    let err = step.expect_err("a panicking UDAF must produce a batch error");
    let _ = std::panic::take_hook();

    match err {
        DriverError::Engine(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("panicked") && msg.contains("poisoned UDAF"),
                "error should carry the UDAF's panic payload, got: {msg}"
            );
        }
        other => panic!("expected DriverError::Engine, got: {other}"),
    }
}
