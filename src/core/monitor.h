//! status_report(): a human-readable snapshot of one facility — the
//! operations view a real facility runs on ("infrastructure and storage
//! services up and running", slide 15). Every figure is read from the
//! facility's own subsystems at call time, so two facilities in one process
//! never see each other's state.
#pragma once

#include <string>

#include "core/facility.h"

namespace lsdf::core {

// Multi-line snapshot of the facility right now. Read caches (HSM recall,
// DFS block) are summed over the facility's own caches; served bytes are
// tier-exclusive, so a read counts there or at the backing store, never at
// both.
[[nodiscard]] std::string status_report(Facility& facility);

}  // namespace lsdf::core
