#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fastcast/checker/checker.hpp"
#include "fastcast/runtime/membership.hpp"
#include "fastcast/runtime/message.hpp"

/// \file checks.hpp
/// Output checks kept apart from the protocol code. They read only what the
/// benchmark itself recorded: the multicasts its clients issued (with their
/// destinations) and each replica's delivery log, taken from ReplicaNode's
/// delivery observers.

namespace perfbench {

struct DeliveryLogs {
  std::vector<fastcast::NodeId> replicas;          ///< one log per replica
  std::vector<std::vector<fastcast::MsgId>> logs;  ///< parallel to replicas
};

using SentMap =
    std::unordered_map<fastcast::MsgId, std::vector<fastcast::GroupId>>;

/// Runs every output check on a quiesced run and returns the violations
/// found (empty = all hold):
///   * every issued multicast is delivered exactly once at every replica of
///     each destination group and nowhere else, and nothing else is
///     delivered;
///   * every two replicas deliver their common messages in the same
///     relative order, and that check rejects a copy of the logs with two
///     shared deliveries swapped (its self-check);
///   * the src/checker properties hold with the run quiesced.
std::vector<std::string> check_outputs(const fastcast::Membership& membership,
                                       const DeliveryLogs& logs,
                                       const SentMap& sent,
                                       const fastcast::Checker& checker);

/// FNV-1a over every replica's delivery sequence.
std::uint64_t fingerprint(const DeliveryLogs& logs);

}  // namespace perfbench
