//! Offline stand-in for `rand_distr` 0.4. `infomap-graph` lists the
//! crate as a dependency and calls nothing from it.
