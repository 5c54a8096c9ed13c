//! §3 — measurement results: one submodule per figure, table or in-text
//! claim.
//!
//! | artifact | module |
//! |---|---|
//! | Fig. 2 (CDF of improvements per type) | [`improvement`] |
//! | Fig. 3 (% improved vs. number of top relays) | [`top_relays`] |
//! | Fig. 4 (% improved vs. threshold, top-10 vs all) | [`threshold`] |
//! | Table 1 (top facilities) | [`facilities`] |
//! | "Changing Countries and Paths" | [`country`] |
//! | VoIP / 320 ms analysis | [`voip`] |
//! | "Stability over Time" (CV) | [`stability`] |
//! | ping-direction symmetry check | [`symmetry`] |
//! | the paper's published values | [`targets`] |
//! | shared numeric helpers | [`stats`] |

pub mod country;
pub mod facilities;
pub mod improvement;
pub mod stability;
pub mod stats;
pub mod symmetry;
pub mod targets;
pub mod threshold;
pub mod top_relays;
pub mod voip;
