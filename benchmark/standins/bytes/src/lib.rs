//! Local stand-in for `bytes`, used only by the `benchmark` package.
//! `metric-store` lists the crate in its manifest but names nothing
//! from it, so there is nothing to provide.
