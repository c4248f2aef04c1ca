//! Root crate: re-exports the whole Effective PRE workspace; the
//! examples/ and tests/ directories of the repository hang off this
//! package. See the `epre` crate for the primary API.
pub mod lint_json;
pub mod report;
pub mod verify_each;

pub use epre::*;
