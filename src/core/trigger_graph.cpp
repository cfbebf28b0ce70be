#include "core/trigger_graph.hpp"

namespace mv2gnc::core {

int TriggerGraph::add_chain(ChainKind kind, Gate enabled) {
  Chain c;
  c.kind = kind;
  c.enabled = std::move(enabled);
  chains_.push_back(std::move(c));
  return static_cast<int>(chains_.size()) - 1;
}

void TriggerGraph::add_node(int chain, Gate gate, Action action) {
  chains_[static_cast<std::size_t>(chain)].nodes.push_back(
      Node{std::move(gate), std::move(action), false});
}

void TriggerGraph::set_epilogue(int chain, Action epilogue) {
  chains_[static_cast<std::size_t>(chain)].epilogue = std::move(epilogue);
}

void TriggerGraph::fire() {
  for (auto& chain : chains_) {
    if (chain.enabled && !chain.enabled()) continue;
    if (chain.kind == ChainKind::kFrontier) {
      while (chain.frontier < chain.nodes.size()) {
        Node& node = chain.nodes[chain.frontier];
        if (node.gate && !node.gate()) break;
        ++chain.frontier;
        if (stats_ != nullptr) ++stats_->triggers_fired;
        if (node.action) node.action();
      }
    } else {
      for (auto& node : chain.nodes) {
        if (node.fired) continue;
        if (node.gate && !node.gate()) continue;
        node.fired = true;
        if (stats_ != nullptr) ++stats_->triggers_fired;
        if (node.action) node.action();
      }
    }
    if (chain.epilogue) chain.epilogue();
  }
}

}  // namespace mv2gnc::core
