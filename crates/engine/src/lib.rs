//! # iolap-engine
//!
//! Batch relational execution engine — the reproduction's stand-in for
//! SparkSQL. Provides:
//!
//! * physical expressions with lazy lineage-dereference hooks ([`expr`]),
//! * multiplicity-weighted aggregate functions and the UDAF trait
//!   ([`aggregate`]),
//! * logical plans with stable aggregate ids ([`plan`]),
//! * a planner with nested-subquery decorrelation ([`planner`]),
//! * the batch executor used as the §8 baseline and as the semantic oracle
//!   for Theorem-1 equivalence tests ([`executor`]), and
//! * the UDF/UDAF registry ([`registry`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod executor;
pub mod expr;
pub mod plan;
pub mod planner;
pub mod registry;

pub use aggregate::{
    Accumulator, AggKind, AggregateFunction, AvgAcc, BuiltinAgg, CountAcc, SumAcc, Udaf,
};
pub use executor::{execute, execute_with, EngineError};
pub use expr::{ArithOp, CmpOp, EvalContext, Expr, ExprError, RefMode, RefResolver, ScalarUdf};
pub use plan::{AggCall, Plan};
pub use planner::{infer_type, plan_query, plan_sql, PlanError, PlannedQuery};
pub use registry::FunctionRegistry;
