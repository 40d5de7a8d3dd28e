#include "perfbench/src/metered_task.h"

#include "dse/gmm/addr.h"
#include "perfbench/src/recorder.h"

namespace perfbench {

const SpanNames& Names() {
  static const SpanNames names{
      InternName("client.read_local"),   InternName("client.read_remote"),
      InternName("client.bulk_read"),    InternName("client.write_local"),
      InternName("client.write_remote"), InternName("client.bulk_write"),
      InternName("client.atomic"),       InternName("client.lock"),
      InternName("client.unlock"),       InternName("client.lock_pair"),
      InternName("client.barrier"),      InternName("pm.spawn"),
      InternName("pm.join"),             InternName("pm.spawn_join"),
      InternName("sched.submit"),
  };
  return names;
}

bool IsClientOp(std::uint16_t name) {
  const SpanNames& n = Names();
  return name == n.read_local || name == n.read_remote ||
         name == n.bulk_read || name == n.write_local ||
         name == n.write_remote || name == n.bulk_write ||
         name == n.atomic || name == n.lock || name == n.unlock ||
         name == n.barrier;
}

std::uint16_t MeteredTask::ClassifyAccess(dse::gmm::GlobalAddr addr,
                                          std::uint64_t len,
                                          bool write) const {
  const SpanNames& n = Names();
  if (len > 64) return write ? n.bulk_write : n.bulk_read;
  const bool local = dse::gmm::HomeOf(addr, inner_.num_nodes()) == node();
  if (write) return local ? n.write_local : n.write_remote;
  return local ? n.read_local : n.read_remote;
}

dse::Status MeteredTask::Read(dse::gmm::GlobalAddr addr, void* out,
                              std::uint64_t len) {
  SpanScope span(ClassifyAccess(addr, len, false), node(), true);
  return inner_.Read(addr, out, len);
}

dse::Status MeteredTask::Write(dse::gmm::GlobalAddr addr, const void* src,
                               std::uint64_t len) {
  SpanScope span(ClassifyAccess(addr, len, true), node(), true);
  return inner_.Write(addr, src, len);
}

dse::Result<std::int64_t> MeteredTask::AtomicFetchAdd(
    dse::gmm::GlobalAddr addr, std::int64_t delta) {
  SpanScope span(Names().atomic, node(), true);
  return inner_.AtomicFetchAdd(addr, delta);
}

dse::Result<std::int64_t> MeteredTask::AtomicCompareExchange(
    dse::gmm::GlobalAddr addr, std::int64_t expected, std::int64_t desired) {
  SpanScope span(Names().atomic, node(), true);
  return inner_.AtomicCompareExchange(addr, expected, desired);
}

dse::Status MeteredTask::Lock(std::uint64_t lock_id) {
  SpanScope span(Names().lock, node(), true);
  return inner_.Lock(lock_id);
}

dse::Status MeteredTask::Unlock(std::uint64_t lock_id) {
  SpanScope span(Names().unlock, node(), true);
  return inner_.Unlock(lock_id);
}

dse::Status MeteredTask::Barrier(std::uint64_t barrier_id, int parties) {
  SpanScope span(Names().barrier, node(), true);
  return inner_.Barrier(barrier_id, parties);
}

dse::Result<dse::Gpid> MeteredTask::Spawn(const std::string& task_name,
                                          std::vector<std::uint8_t> arg,
                                          dse::NodeId node_hint) {
  SpanScope span(Names().spawn, node(), false);
  return inner_.Spawn(task_name, std::move(arg), node_hint);
}

dse::Result<std::vector<std::uint8_t>> MeteredTask::Join(dse::Gpid gpid) {
  SpanScope span(Names().join, node(), false);
  return inner_.Join(gpid);
}

dse::Result<std::uint64_t> MeteredTask::SubmitJob(
    std::uint32_t tenant, const std::string& task_name,
    std::vector<std::uint8_t> arg, std::uint32_t gang,
    dse::NodeId locality_hint) {
  SpanScope span(Names().submit, node(), false);
  return inner_.SubmitJob(tenant, task_name, std::move(arg), gang,
                          locality_hint);
}

void RegisterMetered(dse::TaskRegistry& dst,
                     const std::function<void(dse::TaskRegistry&)>& reg) {
  dse::TaskRegistry src;
  reg(src);
  for (const std::string& name : src.Names()) {
    const dse::TaskFn fn = src.Get(name);
    const std::uint16_t root = InternName("task." + name);
    dse::TaskFn wrapped = [fn, root](dse::Task& t) {
      SpanScope span(root, t.node(), false);
      MeteredTask metered(t);
      fn(metered);
    };
    if (src.IsIdempotent(name)) {
      dst.RegisterIdempotent(name, std::move(wrapped));
    } else {
      dst.Register(name, std::move(wrapped));
    }
  }
}

}  // namespace perfbench
