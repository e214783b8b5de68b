// Conferencing (paper §1, §5.2, ref [11]): participants collaboratively
// annotate a shared design document.
//
// Each workstation agent is a Document replica on the simulated network,
// whose up-to-2 ms delivery jitter reorders the participants' annotations
// differently at each window. Annotations are commutative (order-free set
// inserts); a `publish` checkpoint is the sync operation that forms a
// stable point at which all participants' windows agree.
#include <iostream>

#include "apps/document.h"
#include "common/sim_env.h"
#include "replica/replica_group.h"

int main() {
  using namespace cbc;

  testkit::SimEnv::Config config;
  config.jitter_us = 2000;  // reorder deliveries between participants
  config.seed = 7;
  testkit::SimEnv env(config);

  ReplicaGroup<apps::Document> session(env.transport, 3,
                                       apps::Document::spec());

  // Three participants annotate concurrently: no annotation names another.
  session.node(0).submit(apps::Document::annotate("intro", "motivate with the file-service example"));
  session.node(1).submit(apps::Document::annotate("intro", "cite ISIS and Psync"));
  session.node(2).submit(apps::Document::annotate("model", "define Occurs_After earlier"));
  session.node(0).submit(apps::Document::annotate("model", "add the dependency-graph figure"));
  session.node(1).submit(apps::Document::rewrite("eval", "TODO: add lock-protocol scenario"));
  env.run();  // let the burst propagate everywhere

  // The moderator publishes a checkpoint: a sync op closing the activity.
  session.node(0).submit(apps::Document::publish());
  env.run();

  std::cout << "Conference checkpoint reached. Participant views:\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const apps::Document& doc = session.node(i).state();
    std::cout << "  participant " << i << ": " << doc.to_string() << "\n";
    for (const std::string& remark : doc.annotations("intro")) {
      std::cout << "      intro: " << remark << "\n";
    }
    for (const std::string& remark : doc.annotations("model")) {
      std::cout << "      model: " << remark << "\n";
    }
  }

  const bool agreed = session.states_agree() && session.stable_states_agree();
  std::cout << "\nAll participants agree at the checkpoint: "
            << (agreed ? "yes" : "NO") << "\n";
  std::cout << "Stable points observed by participant 0: "
            << session.node(0).detector().cycles() << "\n";
  return agreed ? 0 : 1;
}
