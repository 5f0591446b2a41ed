#pragma once

#include <memory>

#include "core/observer.h"

/// The env spelling of observer attachment, in one place: dist::Site's
/// observer default (and so net::site_from_env) goes through
/// observer_from_env(), which composes every env-enabled listener; a
/// plain Verifier attaches it through VerifierConfig::observer. Lives in
/// obs/ because it depends on trace/ (the recorder) — obs'
/// reporter/registry parts depend only on core/.
namespace armus::obs {

/// The process's env-configured observer stack: the ARMUS_TRACE recorder
/// and/or the ARMUS_EVENTS JSONL reporter, combined (obs::combine) when
/// both are set, nullptr when neither is. Both underlying instances are
/// process-wide singletons, so however many verifiers/sites attach, one
/// process writes one trace and one event stream.
std::shared_ptr<EventObserver> observer_from_env();

}  // namespace armus::obs
