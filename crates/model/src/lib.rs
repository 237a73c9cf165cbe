//! # nmpic-model — area, storage, energy and efficiency models
//!
//! The non-cycle-accurate models behind the paper's Table I, Fig. 6 and
//! the Fig. 5b energy remark:
//!
//! * [`adapter_area`] — analytic kGE/mm² area model of the adapter,
//!   calibrated to the paper's GF 12 nm implementation (Fig. 6a).
//! * [`a64fx`] / [`sx_aurora`] / [`this_work`] — the on-chip efficiency
//!   comparison points of Fig. 6b.
//! * [`render_table1`] — the Table I parameter dump with derived on-chip
//!   storage.
//! * [`EnergyModel`] — data-movement energy of a run's reported
//!   traffic.
//!
//! The closed-form cost models behind the engine's analytic execution
//! mode are not here: each sits beside its simulator in `nmpic-system`.
//!
//! # Example
//!
//! ```
//! use nmpic_core::AdapterConfig;
//! use nmpic_model::adapter_area;
//!
//! let breakdown = adapter_area(&AdapterConfig::mlp(128));
//! assert!(breakdown.area_mm2() > 0.2 && breakdown.area_mm2() < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod efficiency;
mod energy;
mod table1;

pub use area::{
    adapter_area, AreaBreakdown, COAL_KGE_POINTS, ELE_GEN_KGE, GE_UM2, IDX_QUEUE_KGE_REF,
    OTHERS_KGE,
};
pub use efficiency::{a64fx, sx_aurora, this_work, this_work_onchip_kb, EfficiencyPoint};
pub use energy::{EnergyModel, EnergyReport};
pub use table1::render_table1;
