//! Dependency-free utility substrate for the RABIT workspace.
//!
//! The deployment environments RABIT targets (air-gapped lab controllers,
//! hermetic CI) cannot reach a package registry, so everything the
//! workspace needs beyond `std` lives here: a small, fast, seeded PRNG
//! ([`rng::Rng`]), a JSON value/parser/printer ([`json::Json`]) used
//! for configuration files, trace serialisation, and benchmark reports,
//! and the small inline vector ([`inline::InlineVec`]) the guarded
//! step's buffers use.

pub mod inline;
pub mod json;
pub mod rng;

pub use inline::InlineVec;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
