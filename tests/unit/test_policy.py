"""Unit tests for repro.core.policy — the ⟨p, e, t_b, t_f⟩ model."""

import pytest

from repro.core.entities import controller, processor
from repro.core.policy import Policy, PolicySet, Purpose

NETFLIX = controller("Netflix")
AWS = processor("AWS")


def pol(purpose=Purpose.BILLING, entity=NETFLIX, t_begin=0, t_final=100):
    return Policy(purpose, entity, t_begin, t_final)


class TestPolicy:
    def test_paper_example_pi1(self):
        """π1 = ⟨billing, Netflix, 010123, 010124⟩ authorizes billing reads."""
        pi1 = Policy(Purpose.BILLING, NETFLIX, 10, 1000)
        assert pi1.authorizes(Purpose.BILLING, NETFLIX, 500)
        assert not pi1.authorizes(Purpose.RETENTION, NETFLIX, 500)
        assert not pi1.authorizes(Purpose.BILLING, AWS, 500)

    def test_interval_is_inclusive_both_ends(self):
        p = pol(t_begin=10, t_final=20)
        assert p.active_at(10)
        assert p.active_at(20)
        assert not p.active_at(9)
        assert not p.active_at(21)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="interval is empty"):
            pol(t_begin=5, t_final=4)

    def test_point_interval_allowed(self):
        assert pol(t_begin=5, t_final=5).active_at(5)

    def test_empty_purpose_rejected(self):
        with pytest.raises(ValueError):
            pol(purpose="")

    def test_restricted_to_clips_window(self):
        p = pol(t_begin=0, t_final=100).restricted_to(50, 200)
        assert p.t_begin == 50 and p.t_final == 100

    def test_restricted_to_disjoint_returns_none(self):
        assert pol(t_begin=0, t_final=10).restricted_to(20, 30) is None


class TestPolicySet:
    def test_active_at_is_the_papers_P_of_t(self):
        ps = PolicySet([pol(t_begin=0, t_final=10), pol(t_begin=20, t_final=30)])
        assert len(ps.active_at(5)) == 1
        assert len(ps.active_at(15)) == 0
        assert len(ps.active_at(25)) == 1

    def test_authorizing_finds_matching_policy(self):
        ps = PolicySet([pol(), Policy(Purpose.RETENTION, AWS, 0, 100)])
        assert ps.authorizing(Purpose.RETENTION, AWS, 50) is not None
        assert ps.authorizing(Purpose.RETENTION, NETFLIX, 50) is None

    def test_withdraw_clips_future_authorization(self):
        """Consent withdrawal at t clips the policy to t-1."""
        p = pol(t_begin=0, t_final=100)
        ps = PolicySet([p])
        assert ps.withdraw(p, at=50)
        assert ps.authorizing(Purpose.BILLING, NETFLIX, 49) is not None
        assert ps.authorizing(Purpose.BILLING, NETFLIX, 50) is None

    def test_withdraw_before_begin_removes_policy(self):
        p = pol(t_begin=10, t_final=100)
        ps = PolicySet([p])
        assert ps.withdraw(p, at=10)
        assert len(ps) == 0

    def test_withdraw_missing_returns_false(self):
        assert not PolicySet().withdraw(pol(), at=5)

    def test_withdraw_leaves_other_consents_in_force(self):
        billing = pol(t_begin=0, t_final=100)
        analytics = pol(purpose=Purpose.ANALYTICS, t_begin=0, t_final=100)
        ps = PolicySet([billing, analytics])
        ps.withdraw(billing, at=50)
        assert ps.authorizing(Purpose.BILLING, NETFLIX, 60) is None
        assert ps.authorizing(Purpose.ANALYTICS, NETFLIX, 60) is not None

    def test_withdrawn_consent_cannot_be_withdrawn_again(self):
        """The clipped policy replaces the granted one: a second withdrawal
        of the original grant finds nothing to withdraw."""
        p = pol(t_begin=0, t_final=100)
        ps = PolicySet([p])
        assert ps.withdraw(p, at=50)
        assert not ps.withdraw(p, at=60)
        assert pol(t_begin=0, t_final=49) in ps

    def test_renewal_is_a_new_grant_past_the_old_window(self):
        """Renewing consent adds a policy; the expired window stays closed."""
        ps = PolicySet([pol(t_begin=0, t_final=100)])
        assert ps.authorizing(Purpose.BILLING, NETFLIX, 300) is None
        ps.add(pol(t_begin=90, t_final=500))
        assert ps.authorizing(Purpose.BILLING, NETFLIX, 300) is not None
        assert ps.latest_expiry() == 500

    def test_erasure_deadline_uses_compliance_erase_purpose(self):
        ps = PolicySet(
            [
                pol(t_final=500),
                Policy(Purpose.COMPLIANCE_ERASE, NETFLIX, 0, 300),
            ]
        )
        assert ps.erasure_deadline() == 300

    def test_erasure_deadline_none_without_policy(self):
        assert PolicySet([pol()]).erasure_deadline() is None

    def test_erasure_deadline_takes_earliest(self):
        ps = PolicySet(
            [
                Policy(Purpose.COMPLIANCE_ERASE, NETFLIX, 0, 300),
                Policy(Purpose.COMPLIANCE_ERASE, AWS, 0, 200),
            ]
        )
        assert ps.erasure_deadline() == 200

    def test_intersect_is_conservative(self):
        """Derived data is only accessible when every base authorized it."""
        a = PolicySet([pol(t_begin=0, t_final=100)])
        b = PolicySet([pol(t_begin=50, t_final=200)])
        joint = a.intersect(b)
        assert len(joint) == 1
        only = next(iter(joint))
        assert (only.t_begin, only.t_final) == (50, 100)

    def test_intersect_disjoint_entities_is_empty(self):
        a = PolicySet([pol(entity=NETFLIX)])
        b = PolicySet([pol(entity=AWS)])
        assert len(a.intersect(b)) == 0

    def test_restricted_to_drops_vanishing_policies(self):
        ps = PolicySet([pol(t_begin=0, t_final=10), pol(t_begin=90, t_final=100)])
        clipped = ps.restricted_to(0, 50)
        assert len(clipped) == 1

    def test_remove_all(self):
        ps = PolicySet([pol(), pol(purpose=Purpose.AUDIT)])
        assert ps.remove_all() == 2
        assert len(ps) == 0

    def test_latest_expiry(self):
        ps = PolicySet([pol(t_final=10), pol(t_final=99, purpose=Purpose.AUDIT)])
        assert ps.latest_expiry() == 99
        assert PolicySet().latest_expiry() is None

    def test_purposes_and_entities(self):
        ps = PolicySet([pol(), Policy(Purpose.RETENTION, AWS, 0, 10)])
        assert ps.purposes() == {Purpose.BILLING, Purpose.RETENTION}
        assert ps.entities() == {NETFLIX, AWS}

    def test_copy_is_independent(self):
        ps = PolicySet([pol()])
        clone = ps.copy()
        clone.add(pol(purpose=Purpose.AUDIT))
        assert len(ps) == 1 and len(clone) == 2
