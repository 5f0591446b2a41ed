#include "net/config.h"

#include <stdexcept>

#include "util/env.h"

namespace armus::net {

Endpoint parse_tcp_endpoint(const std::string& url) {
  const std::string scheme = "tcp://";
  if (url.rfind(scheme, 0) != 0) {
    throw std::invalid_argument("ARMUS_STORE url must start with tcp://, got " +
                                url);
  }
  std::string rest = url.substr(scheme.size());
  std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
    throw std::invalid_argument("ARMUS_STORE url must be tcp://host:port, got " +
                                url);
  }
  Endpoint endpoint;
  endpoint.host = rest.substr(0, colon);
  std::string port_str = rest.substr(colon + 1);
  std::size_t consumed = 0;
  unsigned long port = 0;
  try {
    port = std::stoul(port_str, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != port_str.size() || port == 0 || port > 65535) {
    throw std::invalid_argument("ARMUS_STORE port must be 1..65535, got " +
                                port_str);
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

std::vector<Endpoint> parse_tcp_endpoints(const std::string& urls) {
  std::vector<Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= urls.size()) {
    std::size_t comma = urls.find(',', start);
    std::string one = urls.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    endpoints.push_back(parse_tcp_endpoint(one));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (endpoints.empty()) {
    throw std::invalid_argument("ARMUS_STORE must name at least one endpoint");
  }
  return endpoints;
}

std::shared_ptr<RemoteStore> remote_store_from_url(const std::string& urls,
                                                   RemoteStore::Config base) {
  std::vector<Endpoint> endpoints = parse_tcp_endpoints(urls);
  base.host = endpoints.front().host;
  base.port = endpoints.front().port;
  base.endpoints = std::move(endpoints);
  if (base.auth_token.empty()) {
    if (auto token = util::env_str("ARMUS_AUTH_TOKEN")) {
      base.auth_token = *token;
    }
  }
  return std::make_shared<RemoteStore>(std::move(base));
}

std::shared_ptr<dist::SliceStore> slice_store_from_env() {
  auto url = util::env_str("ARMUS_STORE");
  if (!url) return nullptr;
  return remote_store_from_url(*url);
}

std::unique_ptr<dist::Site> site_from_env(dist::Site::Config base) {
  std::shared_ptr<dist::SliceStore> store = slice_store_from_env();
  if (!store) return nullptr;
  // The Verifier's env parser validates every variable the two share.
  VerifierConfig env = VerifierConfig::from_env();
  if (env.mode != VerifyMode::kDetection) {
    throw std::invalid_argument("ARMUS_MODE=" + to_string(env.mode) +
                                " with ARMUS_STORE set: a site only detects");
  }
  base.id = static_cast<dist::SiteId>(util::env_int("ARMUS_SITE_ID", base.id));
  if (util::env_str("ARMUS_GRAPH_MODEL")) base.model = env.model;
  if (util::env_str("ARMUS_CHECK_PERIOD_MS")) {
    base.publish_period = env.period;
    base.check_period = env.period;
  }
  auto site = std::make_unique<dist::Site>(std::move(base), std::move(store));
  site->start();
  return site;
}

}  // namespace armus::net
