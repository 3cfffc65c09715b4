//! The four workloads. Each module's header says why the workload exists.

pub mod cube_seq;
pub mod ingest_requery;
pub mod serve_mix;
pub mod session_par;

use crate::workload::{Opts, Workload};

pub const NAMES: [&str; 4] = ["cube_seq", "session_par", "serve_mix", "ingest_requery"];

pub fn by_name(name: &str, opts: &Opts) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cube_seq" => Box::new(cube_seq::CubeSeq::new(opts)),
        "session_par" => Box::new(session_par::SessionPar::new(opts)),
        "serve_mix" => Box::new(serve_mix::ServeMix::new(opts)),
        "ingest_requery" => Box::new(ingest_requery::IngestRequery::new(opts)),
        _ => return None,
    })
}
