"""The undo-journal ``WorldState`` against the copy-snapshot oracle.

``tests.oracles.CopySnapshotState`` is the world state before the journal:
a snapshot copied every account.  Any sequence of account creation, credit,
debit (an overdraft included), nonce bumps, storage writes, contract
installs, account loads and nested snapshot / commit / revert (unknown ids
included) must leave both with the same accounts, in the same order, with
the same balances, nonces, contracts and storage, after every step.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.account import Account, Address
from repro.chain.state import WorldState
from repro.errors import InsufficientFundsError
from tests.oracles import CopySnapshotState

ADDRESSES = [Address("0x" + f"{index:02x}" * 20) for index in range(1, 4)]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

who = st.sampled_from(ADDRESSES)
amount = st.integers(min_value=0, max_value=50)
snapshot_id = st.integers(min_value=-1, max_value=2)

OPS = st.one_of(
    st.tuples(st.just("create"), who),
    st.tuples(st.just("credit"), who, amount),
    st.tuples(st.just("debit"), who, amount),
    st.tuples(st.just("transfer"), who, who, amount),
    st.tuples(st.just("nonce"), who),
    st.tuples(st.just("store"), who, st.sampled_from(["a", "b", "c"]), amount),
    st.tuples(st.just("install"), who, st.sampled_from(["Token", "Registry"]), amount),
    st.tuples(st.just("load"), who, amount),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("commit"), snapshot_id),
    st.tuples(st.just("revert"), snapshot_id),
)


def apply(state, op):
    """Run one operation; the outcome, or the type of what it raised."""
    name, *args = op
    try:
        if name == "create":
            state.get_account(args[0])
        elif name == "credit":
            state.credit(*args)
        elif name == "debit":
            state.debit(*args)
        elif name == "transfer":
            state.transfer(*args)
        elif name == "nonce":
            return state.increment_nonce(*args)
        elif name == "store":
            state.set_storage(*args)
        elif name == "install":
            state.install_contract(*args)
        elif name == "load":
            address, balance = args
            state.load_account(Account(address=address, balance=balance, nonce=1,
                                       storage={"loaded": balance}))
        elif name == "snapshot":
            return state.snapshot()
        elif name == "commit":
            state.commit(*args)
        else:
            state.revert(*args)
    except (InsufficientFundsError, ValueError) as exc:
        return type(exc)
    return None


def contents(state):
    """Every field of every account, in iteration order."""
    return [(str(account.address), account.balance, account.nonce, account.contract,
             account.code_size, dict(account.storage)) for account in state.accounts()]


@SETTINGS
@given(ops=st.lists(OPS, min_size=8, max_size=40))
def test_the_journal_matches_the_copy_snapshot_oracle(ops):
    state, oracle = WorldState(), CopySnapshotState()
    for op in ops:
        assert apply(state, op) == apply(oracle, op), op
        assert state.to_dict() == oracle.to_dict()
        assert contents(state) == contents(oracle)
        # Outside every snapshot, nothing is kept for an undo.
        assert state._marks or not state._journal
