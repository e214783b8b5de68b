// Conferencing (paper §1, §5.2, ref [11]): participants collaboratively
// annotate a shared design document — ON REAL THREADS.
//
// Each workstation agent is a Document replica over ThreadTransport: every
// endpoint runs its own delivery thread, and the transport injects random
// delivery jitter, so the interleaving is genuinely nondeterministic.
// Annotations are commutative (order-free set inserts); a `publish`
// checkpoint is the sync operation that forms a stable point at which all
// participants' windows agree.
#include <iostream>

#include "apps/document.h"
#include "replica/replica_group.h"
#include "transport/thread_transport.h"

int main() {
  using namespace cbc;

  ThreadTransport::Options options;
  options.max_jitter_us = 2000;  // reorder deliveries across threads
  options.seed = 7;
  ThreadTransport transport(options);

  ReplicaGroup<apps::Document> session(transport, 3, apps::Document::spec());

  // Three participants annotate concurrently from their own threads (the
  // submitting thread here, plus per-endpoint delivery threads).
  session.node(0).submit(apps::Document::annotate("intro", "motivate with the file-service example"));
  session.node(1).submit(apps::Document::annotate("intro", "cite ISIS and Psync"));
  session.node(2).submit(apps::Document::annotate("model", "define Occurs_After earlier"));
  session.node(0).submit(apps::Document::annotate("model", "add the dependency-graph figure"));
  session.node(1).submit(apps::Document::rewrite("eval", "TODO: add lock-protocol scenario"));
  transport.drain();  // let the burst propagate everywhere

  // The moderator publishes a checkpoint: a sync op closing the activity.
  session.node(0).submit(apps::Document::publish());
  transport.drain();

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
