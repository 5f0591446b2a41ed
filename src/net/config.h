#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/site.h"
#include "dist/store.h"
#include "net/remote_store.h"

/// Backend selection: the string/env surface that picks which SliceStore
/// a process publishes into. Lives in net/ (the top layer) so core/ and
/// dist/ never depend back on the network code.
///
///   ARMUS_STORE=tcp://host:port   slices go to an armus-kv server; a
///                                 comma-separated list (tcp://a:p,tcp://b:p)
///                                 names the whole primary+replica pair and
///                                 the client fails over between them
///   ARMUS_STORE unset             no shared store: site_from_env returns
///                                 nullptr and the program keeps its
///                                 process-local Verifier
///   ARMUS_SITE_ID=N               this process's site id (default: the
///                                 site_from_env base's, 0)
///   ARMUS_AUTH_TOKEN=secret       AUTH on every (re)connect (servers
///                                 configured with the same token require
///                                 it before mutating ops)
namespace armus::net {

/// Parses "tcp://host:port". Throws std::invalid_argument on any other
/// shape (unknown scheme, missing/bad port).
Endpoint parse_tcp_endpoint(const std::string& url);

/// Parses a comma-separated "tcp://host:port[,tcp://host:port…]" list
/// (the multi-endpoint ARMUS_STORE form). Throws std::invalid_argument
/// when any element — or the whole list — is malformed or empty.
std::vector<Endpoint> parse_tcp_endpoints(const std::string& urls);

/// A RemoteStore for `urls` ("tcp://host:port", or a comma-separated
/// list: the first entry is dialled first, the rest are failover
/// targets); `base` supplies the non-address knobs (timeouts, backoff).
std::shared_ptr<RemoteStore> remote_store_from_url(
    const std::string& urls, RemoteStore::Config base = {});

/// The backend named by ARMUS_STORE: a RemoteStore for "tcp://…", or
/// nullptr when the variable is unset (callers fall back to in-process).
/// Throws std::invalid_argument on a malformed value — a typo must not
/// silently demote a deployment to a process-local store.
std::shared_ptr<dist::SliceStore> slice_store_from_env();

/// The env path of the §5.2 deployment: a started dist::Site over
/// remote_store_from_url(ARMUS_STORE). The program binds its tasks to
/// `site->verifier()`; the site publishes their statuses, registrations
/// included, and checks the merged snapshot of every process.
///
/// `base` supplies everything the environment does not name. The site id
/// comes from ARMUS_SITE_ID and the graph model from ARMUS_GRAPH_MODEL;
/// ARMUS_CHECK_PERIOD_MS, when set, gives both the publish and the check
/// period. The site's observer defaults to obs::observer_from_env()
/// (ARMUS_TRACE, ARMUS_EVENTS).
///
/// Returns nullptr when ARMUS_STORE is unset. Throws std::invalid_argument
/// on a malformed value, and when ARMUS_MODE names anything but detection:
/// a site only detects.
std::unique_ptr<dist::Site> site_from_env(dist::Site::Config base = {});

}  // namespace armus::net
