#pragma once

/// \file cpu_affinity.hpp
/// How many CPUs the process may run on; benches stamp it as `host_cpus`
/// so numbers from a starved host read as what they are.

namespace fastcast::net {

/// CPUs available to this process (affinity-mask aware, so a container
/// limited to 2 of the host's 64 cores reports 2). Always >= 1.
int online_cpu_count();

}  // namespace fastcast::net
