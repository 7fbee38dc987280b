#include "checks.hpp"

#include <algorithm>

namespace perfbench {

using namespace fastcast;

namespace {

using Positions = std::unordered_map<MsgId, std::uint32_t>;

Positions positions_of(const std::vector<MsgId>& log) {
  Positions pos;
  pos.reserve(log.size());
  for (std::uint32_t i = 0; i < log.size(); ++i) pos.emplace(log[i], i);
  return pos;
}

/// Walks `a` and checks that the messages it shares with the log indexed
/// by `b_pos` appear there in the same order.
std::string compare_pair(const std::vector<MsgId>& a, NodeId a_node,
                         const Positions& b_pos, NodeId b_node) {
  std::int64_t last = -1;
  MsgId last_mid = 0;
  for (MsgId mid : a) {
    auto it = b_pos.find(mid);
    if (it == b_pos.end()) continue;
    const auto pos = static_cast<std::int64_t>(it->second);
    if (pos <= last) {
      return "replicas " + std::to_string(a_node) + " and " +
             std::to_string(b_node) + " deliver " + std::to_string(last_mid) +
             " and " + std::to_string(mid) + " in opposite orders";
    }
    last = pos;
    last_mid = mid;
  }
  return {};
}

std::vector<std::string> check_exactly_once(
    const Membership& membership, const DeliveryLogs& logs, const SentMap& sent) {
  constexpr std::size_t kMaxReported = 5;
  std::vector<std::string> errors;
  auto report = [&](std::string what) {
    if (errors.size() < kMaxReported) errors.push_back(std::move(what));
  };
  for (std::size_t r = 0; r < logs.replicas.size(); ++r) {
    const NodeId node = logs.replicas[r];
    const GroupId group = membership.group_of(node);
    std::unordered_map<MsgId, std::uint32_t> seen;
    seen.reserve(logs.logs[r].size());
    for (MsgId mid : logs.logs[r]) {
      if (++seen[mid] > 1) {
        report("replica " + std::to_string(node) + " delivered " +
               std::to_string(mid) + " more than once");
      }
    }
    for (const auto& [mid, count] : seen) {
      auto it = sent.find(mid);
      if (it == sent.end()) {
        report("replica " + std::to_string(node) + " delivered " +
               std::to_string(mid) + ", which no client issued");
      } else if (std::find(it->second.begin(), it->second.end(), group) ==
                 it->second.end()) {
        report("replica " + std::to_string(node) + " delivered " +
               std::to_string(mid) + " outside its destination groups");
      }
    }
    for (const auto& [mid, dst] : sent) {
      if (std::find(dst.begin(), dst.end(), group) == dst.end()) continue;
      if (seen.find(mid) == seen.end()) {
        report("replica " + std::to_string(node) + " never delivered " +
               std::to_string(mid));
      }
    }
  }
  return errors;
}

std::string check_relative_order(const DeliveryLogs& logs) {
  std::vector<Positions> pos;
  pos.reserve(logs.logs.size());
  for (const auto& log : logs.logs) pos.push_back(positions_of(log));
  for (std::size_t a = 0; a < logs.logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.logs.size(); ++b) {
      std::string err = compare_pair(logs.logs[a], logs.replicas[a], pos[b],
                                     logs.replicas[b]);
      if (!err.empty()) return err;
    }
  }
  return {};
}

std::string order_check_self_test(const DeliveryLogs& logs) {
  for (std::size_t a = 0; a < logs.logs.size(); ++a) {
    for (std::size_t b = 0; b < logs.logs.size(); ++b) {
      if (a == b) continue;
      const Positions b_pos = positions_of(logs.logs[b]);
      std::vector<std::size_t> shared;  // indices into a's log
      for (std::size_t i = 0; i < logs.logs[a].size() && shared.size() < 2; ++i) {
        if (b_pos.count(logs.logs[a][i]) != 0) shared.push_back(i);
      }
      if (shared.size() < 2) continue;
      DeliveryLogs swapped;
      swapped.replicas = {logs.replicas[a], logs.replicas[b]};
      swapped.logs = {logs.logs[a], logs.logs[b]};
      std::swap(swapped.logs[0][shared[0]], swapped.logs[0][shared[1]]);
      if (check_relative_order(swapped).empty()) {
        return "order check accepted replica " +
               std::to_string(logs.replicas[a]) +
               "'s log with two deliveries swapped";
      }
      return {};
    }
  }
  return "order self-check found no two replicas sharing two deliveries";
}

}  // namespace

std::vector<std::string> check_outputs(const Membership& membership,
                                       const DeliveryLogs& logs,
                                       const SentMap& sent,
                                       const Checker& checker) {
  std::vector<std::string> errors = check_exactly_once(membership, logs, sent);
  if (std::string e = check_relative_order(logs); !e.empty()) {
    errors.push_back(std::move(e));
  }
  if (std::string e = order_check_self_test(logs); !e.empty()) {
    errors.push_back(std::move(e));
  }
  const Checker::Report report = checker.check(/*quiesced=*/true);
  if (!report.ok) {
    errors.push_back("checker: " + (report.violations.empty()
                                        ? std::string("failed")
                                        : report.violations.front()));
  }
  return errors;
}

std::uint64_t fingerprint(const DeliveryLogs& logs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t r = 0; r < logs.logs.size(); ++r) {
    mix(logs.replicas[r]);
    mix(logs.logs[r].size());
    for (MsgId mid : logs.logs[r]) mix(mid);
  }
  return h;
}

}  // namespace perfbench
