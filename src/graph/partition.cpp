#include "src/graph/partition.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "src/graph/graph.hpp"
#include "src/util/error.hpp"
#include "src/util/knob.hpp"

namespace cagnet {

Partition block_partition(Index n, int parts) {
  CAGNET_CHECK(n >= 0 && parts >= 1, "bad partition arguments");
  Partition p;
  p.parts = parts;
  p.owner.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    // Inverse of block_range: the unique q with n*q/parts <= v <
    // n*(q+1)/parts is q = floor(((v+1)*parts - 1) / n).
    p.owner[static_cast<std::size_t>(v)] = ((v + 1) * parts - 1) / n;
  }
  return p;
}

Partition random_partition(Index n, int parts, Rng& rng) {
  const std::vector<Index> perm = random_permutation(n, rng);
  Partition blocks = block_partition(n, parts);
  Partition p;
  p.parts = parts;
  p.owner.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    p.owner[static_cast<std::size_t>(v)] =
        blocks.owner[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])];
  }
  return p;
}

Partition greedy_bfs_partition(const Csr& a, int parts, double slack) {
  CAGNET_CHECK(a.rows() == a.cols(), "greedy partitioner expects square A");
  CAGNET_CHECK(parts >= 1 && slack >= 1.0, "bad partitioner arguments");
  const Index n = a.rows();
  Partition p;
  p.parts = parts;
  p.owner.assign(static_cast<std::size_t>(n), Index{-1});

  const auto capacity = static_cast<Index>(
      slack * static_cast<double>(n) / static_cast<double>(parts) + 1);

  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();

  // Seed candidates in descending degree: hubs anchor parts rather than
  // straddling boundaries.
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&](Index x, Index y) {
    return a.row_degree(x) > a.row_degree(y);
  });

  // Simultaneous multi-seed BFS growth: parts claim one vertex per round,
  // which keeps the growth fronts comparable instead of letting the first
  // part swallow the whole dense core.
  std::vector<std::deque<Index>> frontier(static_cast<std::size_t>(parts));
  std::vector<Index> filled(static_cast<std::size_t>(parts), 0);
  Index next_seed = 0;
  Index assigned = 0;

  const auto pull_seed = [&]() -> Index {
    while (next_seed < n &&
           p.owner[static_cast<std::size_t>(
               order[static_cast<std::size_t>(next_seed)])] >= 0) {
      ++next_seed;
    }
    return next_seed < n ? order[static_cast<std::size_t>(next_seed)]
                         : Index{-1};
  };

  while (assigned < n) {
    bool progressed = false;
    for (int part = 0; part < parts && assigned < n; ++part) {
      if (filled[static_cast<std::size_t>(part)] >= capacity) continue;
      Index v = -1;
      auto& q = frontier[static_cast<std::size_t>(part)];
      while (!q.empty()) {
        const Index candidate = q.front();
        q.pop_front();
        if (p.owner[static_cast<std::size_t>(candidate)] < 0) {
          v = candidate;
          break;
        }
      }
      if (v < 0) v = pull_seed();
      if (v < 0) break;  // nothing left anywhere
      p.owner[static_cast<std::size_t>(v)] = part;
      ++filled[static_cast<std::size_t>(part)];
      ++assigned;
      progressed = true;
      for (Index e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
        const Index u = col_idx[e];
        if (p.owner[static_cast<std::size_t>(u)] < 0) q.push_back(u);
      }
    }
    if (!progressed) break;  // all remaining parts at capacity
  }
  // Leftovers (all parts capped): spill into the least-filled parts.
  for (Index v = 0; v < n; ++v) {
    if (p.owner[static_cast<std::size_t>(v)] >= 0) continue;
    const auto it = std::min_element(filled.begin(), filled.end());
    p.owner[static_cast<std::size_t>(v)] =
        static_cast<Index>(it - filled.begin());
    ++(*it);
  }

  // Neighbor-majority refinement sweeps (a light KL/FM stand-in): move a
  // vertex to the part holding most of its neighbors when that strictly
  // reduces its cut and respects the balance cap. Iterated label
  // propagation of this kind recovers community structure quickly; stop at
  // a fixed-point or after a bounded number of sweeps.
  std::vector<Index> tally(static_cast<std::size_t>(parts), 0);
  constexpr int kMaxSweeps = 12;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    Index moves = 0;
    for (Index v = 0; v < n; ++v) {
      if (row_ptr[v + 1] == row_ptr[v]) continue;
      std::fill(tally.begin(), tally.end(), Index{0});
      for (Index e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
        ++tally[static_cast<std::size_t>(
            p.owner[static_cast<std::size_t>(col_idx[e])])];
      }
      const Index current = p.owner[static_cast<std::size_t>(v)];
      Index best = current;
      for (int part = 0; part < parts; ++part) {
        if (tally[static_cast<std::size_t>(part)] >
                tally[static_cast<std::size_t>(best)] &&
            filled[static_cast<std::size_t>(part)] < capacity) {
          best = static_cast<Index>(part);
        }
      }
      if (best != current) {
        p.owner[static_cast<std::size_t>(v)] = best;
        --filled[static_cast<std::size_t>(current)];
        ++filled[static_cast<std::size_t>(best)];
        ++moves;
      }
    }
    if (moves == 0) break;
  }
  return p;
}

EdgeCutStats edge_cut(const Csr& a, const Partition& partition) {
  CAGNET_CHECK(partition.size() == a.rows(), "partition size mismatch");
  CAGNET_CHECK(a.rows() == a.cols(), "edge_cut expects square A");
  EdgeCutStats s;
  std::vector<Index> cut_per_part(static_cast<std::size_t>(partition.parts), 0);
  std::vector<std::unordered_set<Index>> remote(
      static_cast<std::size_t>(partition.parts));

  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  for (Index u = 0; u < a.rows(); ++u) {
    const Index pu = partition.owner[static_cast<std::size_t>(u)];
    for (Index q = row_ptr[u]; q < row_ptr[u + 1]; ++q) {
      const Index v = col_idx[q];
      const Index pv = partition.owner[static_cast<std::size_t>(v)];
      if (pu != pv) {
        ++s.total_cut_edges;
        ++cut_per_part[static_cast<std::size_t>(pu)];
        remote[static_cast<std::size_t>(pu)].insert(v);
      }
    }
  }
  for (int part = 0; part < partition.parts; ++part) {
    s.max_cut_edges_per_part =
        std::max(s.max_cut_edges_per_part,
                 cut_per_part[static_cast<std::size_t>(part)]);
    s.max_remote_rows_per_part =
        std::max(s.max_remote_rows_per_part,
                 static_cast<Index>(remote[static_cast<std::size_t>(part)].size()));
  }
  return s;
}

std::string to_string(const EdgeCutStats& s) {
  std::ostringstream os;
  os << "total_cut=" << s.total_cut_edges
     << " max_cut_per_part=" << s.max_cut_edges_per_part
     << " max_remote_rows=" << s.max_remote_rows_per_part;
  return os.str();
}

std::vector<Index> partition_offsets(const Partition& partition) {
  std::vector<Index> offsets(static_cast<std::size_t>(partition.parts) + 1,
                             0);
  for (Index o : partition.owner) {
    ++offsets[static_cast<std::size_t>(o) + 1];
  }
  for (std::size_t q = 1; q < offsets.size(); ++q) {
    offsets[q] += offsets[q - 1];
  }
  return offsets;
}

std::vector<Index> partition_permutation(const Partition& partition) {
  // Stable counting sort by owner: cursor[q] walks part q's output range.
  std::vector<Index> cursor = partition_offsets(partition);
  std::vector<Index> perm(partition.owner.size());
  for (Index v = 0; v < partition.size(); ++v) {
    const Index q = partition.owner[static_cast<std::size_t>(v)];
    perm[static_cast<std::size_t>(cursor[static_cast<std::size_t>(q)]++)] = v;
  }
  return perm;
}

const std::vector<PartitionerSpec>& partitioner_registry() {
  static const std::vector<PartitionerSpec> registry = [] {
    std::vector<PartitionerSpec> specs;
    specs.push_back({"block", [](const Csr& a, int parts, std::uint64_t) {
                       return block_partition(a.rows(), parts);
                     }});
    specs.push_back({"random", [](const Csr& a, int parts,
                                  std::uint64_t seed) {
                       Rng rng(seed);
                       return random_partition(a.rows(), parts, rng);
                     }});
    specs.push_back({"greedy-bfs", [](const Csr& a, int parts,
                                      std::uint64_t) {
                       return greedy_bfs_partition(a, parts);
                     }});
    return specs;
  }();
  return registry;
}

const PartitionerSpec* find_partitioner(const std::string& name) {
  for (const PartitionerSpec& spec : partitioner_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::string& default_partitioner_name() {
  static const std::string name = [] {
    const std::optional<std::string> v = knob::env("CAGNET_PARTITION");
    if (!v) return std::string("block");
    std::vector<std::string> names;
    for (const PartitionerSpec& spec : partitioner_registry()) {
      names.push_back(spec.name);
    }
    return knob::parse_name("CAGNET_PARTITION", *v, names);
  }();
  return name;
}

}  // namespace cagnet
