#include "src/gls/deploy.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace globe::gls {

GlsDeployment::GlsDeployment(sim::Transport* transport, sim::Topology* topology,
                             const sec::KeyRegistry* registry,
                             GlsDeploymentOptions options,
                             std::function<void(sim::NodeId)> on_host_created)
    : transport_(transport),
      topology_(topology),
      registry_(registry),
      options_(std::move(options)),
      on_host_created_(std::move(on_host_created)) {
  auto count_for = [&](sim::DomainId domain, int depth) {
    if (!options_.subnode_count) {
      return 1;
    }
    int count = options_.subnode_count(domain, depth);
    return count < 1 ? 1 : count;
  };

  // Pass 1: create every subnode and record the DirectoryRefs.
  for (sim::DomainId domain = 0; domain < topology->num_domains(); ++domain) {
    int depth = topology->DomainDepth(domain);
    int count = count_for(domain, depth);
    DirectoryRef ref;
    for (int i = 0; i < count; ++i) {
      auto subnode = MakeSubnode(domain, depth, i);
      ref.subnodes.push_back(subnode->endpoint());
      subnodes_.push_back(std::move(subnode));
    }
    directories_[domain] = std::move(ref);
  }

  // Pass 2: wire parents, children and each subnode's view of its own node (the
  // sibling set power-of-two routing and the delete fan-out need).
  for (auto& subnode : subnodes_) {
    sim::DomainId domain = subnode->domain();
    sim::DomainId parent = topology->DomainParent(domain);
    if (parent != sim::kNoDomain) {
      subnode->SetParent(directories_.at(parent));
    }
    for (sim::DomainId child : topology->DomainChildren(domain)) {
      subnode->AddChild(child, directories_.at(child));
    }
    subnode->SetSelf(directories_.at(domain));
  }
}

const DirectoryRef& GlsDeployment::DirectoryFor(sim::DomainId domain) const {
  return directories_.at(domain);
}

const DirectoryRef& GlsDeployment::LeafDirectoryFor(sim::NodeId host) const {
  return directories_.at(topology_->NodeDomain(host));
}

std::unique_ptr<GlsClient> GlsDeployment::MakeClient(sim::NodeId host) const {
  return std::make_unique<GlsClient>(transport_, host, LeafDirectoryFor(host));
}

std::vector<const DirectorySubnode*> GlsDeployment::SubnodesOf(
    sim::DomainId domain) const {
  std::vector<const DirectorySubnode*> out;
  for (const auto& subnode : subnodes_) {
    if (subnode->domain() == domain) {
      out.push_back(subnode.get());
    }
  }
  return out;
}

SubnodeStats GlsDeployment::TotalStats() const {
  SubnodeStats total;
  for (const auto& subnode : subnodes_) {
    const SubnodeStats& s = subnode->stats();
    total.lookups += s.lookups;
    total.found_local += s.found_local;
    total.forwards_up += s.forwards_up;
    total.forwards_down += s.forwards_down;
    total.forwards_sideways += s.forwards_sideways;
    total.inserts += s.inserts;
    total.deletes += s.deletes;
    total.pointer_installs += s.pointer_installs;
    total.pointer_removes += s.pointer_removes;
    total.denied += s.denied;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_invalidations += s.cache_invalidations;
    total.insert_requests += s.insert_requests;
    total.delete_requests += s.delete_requests;
    total.negative_cache_hits += s.negative_cache_hits;
    total.master_claims += s.master_claims;
    total.master_claims_granted += s.master_claims_granted;
    total.lease_renewals += s.lease_renewals;
    total.stale_scrubs += s.stale_scrubs;
    total.insert_invals += s.insert_invals;
    total.lookup_alls += s.lookup_alls;
    total.store_evictions += s.store_evictions;
    total.store_fault_ins += s.store_fault_ins;
    total.store_spilled_bytes += s.store_spilled_bytes;
    total.store_peak_resident += s.store_peak_resident;
  }
  return total;
}

std::unique_ptr<DirectorySubnode> GlsDeployment::MakeSubnode(sim::DomainId domain,
                                                             int depth, int index) {
  sim::NodeId host = topology_->AddNode(
      "gls." + topology_->DomainName(domain) + "." + std::to_string(index), domain);
  if (on_host_created_) {
    on_host_created_(host);
  }
  return std::make_unique<DirectorySubnode>(transport_, host, domain, depth,
                                            options_.node_options, registry_,
                                            options_.rng_seed + domain * 131 + index);
}

void GlsDeployment::SplitDirectoryNode(sim::DomainId domain, int new_subnode_count) {
  // The domain's subnodes in ref order (creation order within the domain).
  std::vector<DirectorySubnode*> members;
  for (const auto& subnode : subnodes_) {
    if (subnode->domain() == domain) {
      members.push_back(subnode.get());
    }
  }
  assert(!members.empty() && "split of a domain with no directory node");
  if (new_subnode_count <= static_cast<int>(members.size())) {
    return;  // splitting only grows a node
  }

  // Drain the node's entire directory state before the hash rule changes:
  // member by member, each in ascending OID order, the entries still
  // serialized.
  std::vector<SubnodeStore::SpilledEntry> entries;
  std::vector<std::pair<ObjectId, DirectorySubnode::OwnerRecord>> owners;
  for (DirectorySubnode* member : members) {
    member->DrainEntries(&entries);
    for (auto& item : member->ExportOwners()) {
      owners.push_back(std::move(item));
    }
    member->ClearDirectoryState();
  }

  // Grow the subnode set and rebuild the ref.
  int depth = topology_->DomainDepth(domain);
  for (int i = static_cast<int>(members.size()); i < new_subnode_count; ++i) {
    auto subnode = MakeSubnode(domain, depth, i);
    members.push_back(subnode.get());
    subnodes_.push_back(std::move(subnode));
  }
  DirectoryRef ref;
  for (DirectorySubnode* member : members) {
    ref.subnodes.push_back(member->endpoint());
  }
  directories_[domain] = ref;

  // Redistribute by the new hash rule: each member's slice keeps the drain
  // order and is placed in one pass.
  std::vector<std::vector<SubnodeStore::SpilledEntry>> slices(members.size());
  for (auto& entry : entries) {
    slices[ref.SubnodeIndex(entry.oid)].push_back(std::move(entry));
  }
  entries = {};
  for (size_t i = 0; i < members.size(); ++i) {
    members[i]->ImportEntries(slices[i]);
  }
  for (const auto& [oid, record] : owners) {
    members[ref.SubnodeIndex(oid)]->ImportOwner(oid, record);
  }

  // Rewire every ref that names this node: the members' own parent/children/
  // self views, the parent node's child ref, and the children's parent refs.
  sim::DomainId parent = topology_->DomainParent(domain);
  auto children = topology_->DomainChildren(domain);
  for (DirectorySubnode* member : members) {
    if (parent != sim::kNoDomain) {
      member->SetParent(directories_.at(parent));
    }
    for (sim::DomainId child : children) {
      member->AddChild(child, directories_.at(child));
    }
    member->SetSelf(ref);
  }
  for (const auto& subnode : subnodes_) {
    if (parent != sim::kNoDomain && subnode->domain() == parent) {
      subnode->AddChild(domain, ref);
    }
    for (sim::DomainId child : children) {
      if (subnode->domain() == child) {
        subnode->SetParent(ref);
      }
    }
  }
}

int GlsDeployment::SplitOverloadedNodes(size_t max_entries_per_subnode) {
  // Measure first, then split: a split changes the subnode set it iterates.
  std::vector<std::pair<sim::DomainId, int>> to_split;
  std::map<sim::DomainId, std::pair<size_t, int>> fullest;  // domain -> (max, count)
  for (const auto& subnode : subnodes_) {
    auto& [max_entries, count] = fullest[subnode->domain()];
    max_entries = std::max(max_entries, subnode->TotalEntries());
    ++count;
  }
  for (const auto& [domain, load] : fullest) {
    if (load.first > max_entries_per_subnode) {
      to_split.push_back({domain, load.second * 2});
    }
  }
  for (const auto& [domain, new_count] : to_split) {
    SplitDirectoryNode(domain, new_count);
  }
  return static_cast<int>(to_split.size());
}

}  // namespace globe::gls
