//! Every name of the program under test that the benchmark touches.
//!
//! The rest of the benchmark imports the repo's crates only through this
//! file, so the list below is exactly the public surface that is
//! load-bearing for the benchmark (see README.md, "What the benchmark
//! calls"). A later surface-collapsing change edits this file and nothing
//! else in the benchmark.

// Facade (`c-cubing`): sessions, queries, planner, engine knobs.
pub use c_cubing::{Algorithm, CubeQuery, CubeSession, EngineConfig, EngineStats, IngestStats};

// Kernel layer (`ccube-core`): tables, sinks, the micro-probed kernels and
// the naive reference cuber the oracle is built on.
pub use ccube_core::closedness::ClosedInfo;
pub use ccube_core::measure::CountOnly;
pub use ccube_core::naive::{naive_cube, Mode};
pub use ccube_core::partition::Partitioner;
pub use ccube_core::sink::CellSink;
pub use ccube_core::table::ViewArena;
pub use ccube_core::{DimMask, Table, TableBuilder, TupleId};

// Generators (`ccube-data`): the ladder's tables.
pub use ccube_data::{SyntheticSpec, WeatherSpec};

// Serving layer (`ccube-serve`): server, clients, wire codec.
pub use ccube_serve::proto::{decode_response, encode_response};
pub use ccube_serve::{
    CellBlock, Client, DoneStats, QueryRequest, ResilientClient, Response, Server, ServerConfig,
};
