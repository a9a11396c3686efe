#pragma once

/// Umbrella header: the full public API of the availsim library — the
/// SC'03 "Quantifying and Improving the Availability of High-Performance
/// Cluster-Based Internet Services" reproduction.
///
/// Typical entry points:
///  * harness::Testbed / harness::run_single_fault — build a configured
///    cluster and run the methodology's Phase-1 fault injections.
///  * model::SystemModel — the Phase-2 analytic availability model.
///  * model::predict_* / model::apply_* — the paper's modeled technique
///    and hardware transforms.
///  * press::PressNode, membership::MemberServer, qmon::SelfMonitoringQueue,
///    fme::FmeDaemon — the individual (reusable) subsystems.

#include "availsim/sim/rng.hpp"
#include "availsim/sim/simulator.hpp"
#include "availsim/sim/time.hpp"

#include "availsim/net/host.hpp"
#include "availsim/net/network.hpp"
#include "availsim/net/packet.hpp"

#include "availsim/disk/disk.hpp"

#include "availsim/fault/fault.hpp"
#include "availsim/fault/injector.hpp"

#include "availsim/workload/client.hpp"
#include "availsim/workload/fileset.hpp"
#include "availsim/workload/http.hpp"
#include "availsim/workload/popularity.hpp"
#include "availsim/workload/recorder.hpp"
#include "availsim/workload/trace.hpp"
#include "availsim/workload/zipf.hpp"

#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/press/messages.hpp"
#include "availsim/press/params.hpp"
#include "availsim/press/press_node.hpp"

#include "availsim/frontend/frontend.hpp"
#include "availsim/frontend/monitor.hpp"

#include "availsim/membership/board.hpp"
#include "availsim/membership/client_lib.hpp"
#include "availsim/membership/member_server.hpp"
#include "availsim/membership/messages.hpp"

#include "availsim/qmon/qmon.hpp"

#include "availsim/fme/fme.hpp"
#include "availsim/fme/sfme.hpp"

#include "availsim/model/availability_model.hpp"
#include "availsim/model/hardware.hpp"
#include "availsim/model/predictions.hpp"
#include "availsim/model/scaling.hpp"
#include "availsim/model/template.hpp"

#include "availsim/tier/tier_service.hpp"

#include "availsim/harness/experiment.hpp"
#include "availsim/harness/export.hpp"
#include "availsim/harness/report.hpp"
#include "availsim/harness/stage_extractor.hpp"
#include "availsim/harness/testbed.hpp"
