"""A commit process builds its consensus module the first time it is used.

Nice executions never fall back to uniform consensus, so none of the six
consensus-using protocols builds its module in one, on the simulator or as
the commit layer of a cluster.  A run that falls back builds it on first use:
on a process that proposes to it, and on one that only receives its peers'
consensus traffic (the envelope builds it, then is delivered to it).  The
containers only a fallback path fills are not built in a nice run either,
nor those only one role is sent what fills: INBAC's backed-up votes on an
outsider, Paxos Commit's accepted votes on a non-acceptor and its phase-2b
reports on a process other than the leader.
"""

from __future__ import annotations

import pytest

from repro.db.cluster import Cluster, ClusterConfig
from repro.env import MODULE_ENVELOPE
from repro.protocols import INBAC
from repro.protocols.registry import get_protocol
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import FixedDelay
from repro.sim.runner import Scheduler, Simulation, run_nice_execution
from repro.workloads.transactions import uniform_workload

CONSENSUS_USERS = {
    "INBAC": "iuc",
    "1NBAC": "uc",
    "0NBAC": "uc",
    "(2n-2+f)NBAC": "uc",
    "PaxosCommit": "uc",
    "FasterPaxosCommit": "uc",
}
#: the attributes a nice run of each protocol never gives a process its own
FALLBACK_ONLY = {
    "INBAC": ("_more_acks", "collection_help"),
    "0NBAC": ("myack",),
}

#: the attributes a nice run gives only the processes of one role its own
ROLE_ONLY = {
    "INBAC": {"_collection0": lambda p: p.pid <= p.f + 1},
    "PaxosCommit": {
        "accepted": lambda p: p.pid <= p.f + 1,
        "reports": lambda p: p.pid == 1,
    },
    "FasterPaxosCommit": {
        "accepted": lambda p: p.pid <= p.f + 1,
        "reports": lambda p: True,
    },
}


def _modules(process):
    return dict(process._components)


@pytest.mark.parametrize("name", sorted(CONSENSUS_USERS))
@pytest.mark.parametrize("n,f", [(3, 1), (5, 2)])
def test_a_nice_run_builds_no_consensus_module(name, n, f):
    cls = get_protocol(name).cls
    assert cls.consensus_name == CONSENSUS_USERS[name]
    result = run_nice_execution(cls, n, f)
    assert set(result.trace.module_histogram()) <= {"main"}
    for pid, process in result.processes.items():
        assert _modules(process) == {}, f"P{pid}"
        for attribute in FALLBACK_ONLY.get(name, ()):
            assert attribute not in vars(process), f"P{pid}.{attribute}"


@pytest.mark.parametrize("name", sorted(ROLE_ONLY))
@pytest.mark.parametrize("n,f", [(3, 1), (5, 2)])
def test_a_nice_run_builds_role_state_only_in_its_role(name, n, f):
    result = run_nice_execution(get_protocol(name).cls, n, f)
    assert set(result.decisions().values()) == {1}
    for pid, process in result.processes.items():
        for attribute, in_role in ROLE_ONLY[name].items():
            built = attribute in vars(process)
            assert built == in_role(process), f"P{pid}.{attribute}"
            if built:
                assert getattr(process, attribute), f"P{pid}.{attribute}"


def test_a_fallback_builds_the_module_on_the_proposer_and_on_a_receiver():
    # P1's acknowledgement to P2 is late: P1 and P2 fall back, P3 decides
    # fast and builds iuc only when its peers' consensus traffic reaches it
    result = Simulation(
        n=3, f=1, process_class=INBAC, delay_model=FixedDelay()
    ).run([1, 1, 1], fault_plan=FaultPlan(delay_rules=[DelayRule(src=1, dst=2, extra=2.0)]))
    assert set(result.decisions().values()) == {1}
    processes = result.processes
    assert processes[1]._components["iuc"].proposed
    receiver = processes[3]._components["iuc"]
    assert not receiver.proposed and receiver.decided
    assert processes[3].branch == "f-correct-acks/decide-AND"
    # the module the accessor returns is the one the envelope built
    assert processes[3].consensus() is receiver
    assert result.trace.message_count("iuc") > 0


class _Env:
    """An environment whose process may decide but never gets to send."""

    def decide(self, value):
        pass

    def send_many(self, dsts, payload, module="main"):
        raise AssertionError("nothing may be sent")

    send = send_many


def test_an_envelope_for_an_undeclared_module_is_dropped():
    process = INBAC(1, 3, 1, _Env())
    process.deliver(2, (MODULE_ENVELOPE, "uc", ("DECIDED", 1)))
    assert _modules(process) == {}
    # the declared one is built, then handed the envelope
    process.deliver(2, (MODULE_ENVELOPE, "iuc", ("DECIDED", 1)))
    assert process._components["iuc"].decided
    assert process.decision == 1


def _cluster_run(protocol, fault_plan=None):
    workload = uniform_workload(
        20, 3, keys_per_partition=1000, participants_per_txn=3, seed=1
    )
    config = ClusterConfig(
        num_partitions=3, commit_protocol=protocol, seed=1, fault_plan=fault_plan
    )
    cluster = Cluster(config, Scheduler, max_time=config.max_time)
    cluster.bind(workload.transactions)
    cluster.kernel.run()
    instances = [
        instance
        for pid in (1, 2, 3)
        for instance in cluster.kernel.processes[pid].instances.values()
    ]
    return cluster, instances


@pytest.mark.parametrize("name", sorted(CONSENSUS_USERS))
def test_a_nice_cluster_builds_no_consensus_module(name):
    cluster, instances = _cluster_run(name)
    assert cluster.report().committed == 20
    # none of these protocols retires its instances
    assert len(instances) == 60
    assert all(_modules(instance) == {} for instance in instances)
    assert set(cluster.kernel.trace.module_histogram()) == (
        {"main"} if name == "0NBAC" else {"main", "commit:main"}
    )
    cluster.kernel.release()


@pytest.mark.parametrize("name", ["INBAC", "PaxosCommit"])
def test_a_cluster_that_falls_back_builds_the_module_at_first_use(name):
    module = CONSENSUS_USERS[name]
    plan = FaultPlan(delay_rules=[DelayRule(src=1, dst=2, extra=2.0)])
    cluster, instances = _cluster_run(name, plan)
    assert cluster.report().committed == 20
    built = [instance._components[module] for instance in instances if _modules(instance)]
    assert any(component.proposed for component in built)
    assert any(not component.proposed for component in built)
    assert cluster.kernel.trace.message_count(f"commit:{module}") > 0
    cluster.kernel.release()
