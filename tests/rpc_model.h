// Test fixture: the RPC pipeline of examples/rpc_pipeline.cpp, two clients
// calling a doubling server through a shared SynBlocking request connector.
// Its fair `F c0_done` product (128,609 states) is the workload the LTL and
// durability suites pin.
#pragma once

#include <memory>

#include "kernel/machine.h"
#include "model/builder.h"
#include "pnp/pnp.h"

namespace pnp::fixtures {

using namespace model;

inline ComponentModelFn rpc_client(int first_arg, const char* done_global) {
  return [first_arg, done_global](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint call = ctx.port("call");
    const PortEndpoint reply = ctx.port("reply");
    const GVar done = ctx.global(done_global);
    const LVar i = b.local("i", 0);
    const LVar r = b.local("r");
    return seq(
        do_(alt(seq(guard(b.l(i) < b.k(2)),
                    iface::send_msg(b, call, b.l(i) + b.k(first_arg)),
                    iface::recv_msg(b, reply, r),
                    assert_(b.l(r) == (b.l(i) + b.k(first_arg)) * b.k(2),
                            "server doubles its argument"),
                    assign(i, b.l(i) + b.k(1)))),
            alt(seq(guard(b.l(i) == b.k(2)), break_()))),
        assign(done, b.k(1)), end_label());
  };
}

inline ComponentModelFn rpc_server() {
  return [](ComponentContext& ctx) {
    ProcBuilder& b = ctx.builder();
    const PortEndpoint rx = ctx.port("rx");
    const PortEndpoint tx0 = ctx.port("tx0");
    const PortEndpoint tx1 = ctx.port("tx1");
    const LVar v = b.local("v");
    return seq(do_(alt(seq(
        end_label(), iface::recv_msg(b, rx, v),
        if_(alt(seq(guard(b.l(v) < b.k(100)),
                    iface::send_msg(b, tx0, b.l(v) * b.k(2)))),
            alt_else(seq(iface::send_msg(b, tx1, b.l(v) * b.k(2)))))))));
  };
}

inline Architecture rpc_architecture() {
  Architecture arch("rpc");
  arch.add_global("c0_done", 0);
  arch.add_global("c1_done", 0);
  const int c0 = arch.add_component("Client0", rpc_client(1, "c0_done"));
  const int c1 = arch.add_component("Client1", rpc_client(100, "c1_done"));
  const int srv = arch.add_component("Server", rpc_server());
  const int req = arch.add_connector("Calls", {ChannelKind::Fifo, 2});
  arch.attach_sender(c0, "call", req, SendPortKind::SynBlocking);
  arch.attach_sender(c1, "call", req, SendPortKind::SynBlocking);
  arch.attach_receiver(srv, "rx", req, RecvPortKind::Blocking);
  patterns::point_to_point(arch, srv, "tx0", c0, "reply", "Reply0",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  patterns::point_to_point(arch, srv, "tx1", c1, "reply", "Reply1",
                           SendPortKind::AsynBlocking, RecvPortKind::Blocking,
                           {ChannelKind::SingleSlot, 1});
  return arch;
}

/// A generated model plus its named propositions (the machine refers into
/// the generator's spec, so both live together).
struct GenModel {
  ModelGenerator gen;
  std::unique_ptr<kernel::Machine> m;
};

inline std::unique_ptr<GenModel> rpc_model(bool optimized) {
  auto g = std::make_unique<GenModel>();
  g->m = std::make_unique<kernel::Machine>(
      g->gen.generate(rpc_architecture(), {.optimize_connectors = optimized}));
  g->gen.add_prop("c0_done", g->gen.gx("c0_done") == g->gen.kx(1));
  return g;
}


}  // namespace pnp::fixtures
