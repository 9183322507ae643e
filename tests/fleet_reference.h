// The fleet event loop as it stood before the wakeup index, kept as the
// slow oracle for run_fleet (serve_fleet_diff_test).
#pragma once

#include "src/serve/fleet.h"

namespace volut {

/// run_fleet's timeline with an O(clients) rescan per phase and per event.
/// Returns the same FleetResult except `sr_samples`, which stays empty; it
/// publishes nothing to the metrics registry.
FleetResult run_fleet_reference(const FleetConfig& config);

}  // namespace volut
