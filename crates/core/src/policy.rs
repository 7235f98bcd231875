//! Credential-based access control at the datasources.
//!
//! Paper Section 2: "Datasources base their access control decisions only
//! on the properties presented in the credentials.  If the presented
//! credentials suffice to grant data access, the datasources evaluate the
//! partial queries.  In case the credentials do not allow full data
//! access, the partial results might be filtered in order to return only
//! those records for which access permissions exist."

use relalg::{Predicate, Relation};

use crate::credential::{Credential, Property};
use crate::MedError;

/// One rule: clients presenting all `required` properties may read the
/// rows matching `row_filter` (use [`Predicate::True`] for full access).
#[derive(Debug, Clone)]
pub struct AccessRule {
    /// Properties that must all be asserted by the presented credentials.
    pub required: Vec<Property>,
    /// The rows this rule grants.
    pub row_filter: Predicate,
}

impl AccessRule {
    /// Grants all rows to holders of `required`.
    pub fn full_access(required: Vec<Property>) -> Self {
        AccessRule {
            required,
            row_filter: Predicate::True,
        }
    }

    /// Grants the rows matching `filter` to holders of `required`.
    pub fn filtered(required: Vec<Property>, filter: Predicate) -> Self {
        AccessRule {
            required,
            row_filter: filter,
        }
    }

    fn satisfied_by(&self, credentials: &[Credential]) -> bool {
        self.required
            .iter()
            .all(|p| credentials.iter().any(|c| c.asserts(p)))
    }
}

/// A datasource's policy: the union of its rules.
#[derive(Debug, Clone, Default)]
pub struct AccessPolicy {
    rules: Vec<AccessRule>,
}

/// Outcome of an access-control decision.
#[derive(Debug, Clone)]
pub enum AccessDecision {
    /// Some rule matched; the relation may be read through this filter
    /// (the union of all matching rules' row filters).
    Granted(Predicate),
    /// No rule matched.
    Denied,
}

impl AccessPolicy {
    /// A policy that grants everything to everyone (for tests and
    /// intra-enterprise deployments with a trusted perimeter).
    pub fn allow_all() -> Self {
        AccessPolicy {
            rules: vec![AccessRule::full_access(vec![])],
        }
    }

    /// A policy from explicit rules.
    pub fn new(rules: Vec<AccessRule>) -> Self {
        AccessPolicy { rules }
    }

    /// Every property any rule may require — advertised to the mediator so
    /// it can select the credential subsets `CR_i` (Listing 1, step 2).
    /// This is policy *metadata*, not data.
    pub fn advertised_properties(&self) -> Vec<Property> {
        let mut props: Vec<Property> = self
            .rules
            .iter()
            .flat_map(|r| r.required.iter().cloned())
            .collect();
        props.sort();
        props.dedup();
        props
    }

    /// Decides access for the presented credentials.
    pub fn decide(&self, credentials: &[Credential]) -> AccessDecision {
        let mut granted: Option<Predicate> = None;
        for rule in &self.rules {
            if rule.satisfied_by(credentials) {
                granted = Some(match granted.take() {
                    Some(acc) => acc.or(rule.row_filter.clone()),
                    None => rule.row_filter.clone(),
                });
            }
        }
        match granted {
            Some(p) => AccessDecision::Granted(p),
            None => AccessDecision::Denied,
        }
    }

    /// Applies the decision to a relation: the filtered partial result, or
    /// an access-denied error.
    pub fn filter(
        &self,
        relation: &Relation,
        credentials: &[Credential],
        source_name: &str,
    ) -> Result<Relation, MedError> {
        match self.decide(credentials) {
            AccessDecision::Granted(pred) => Ok(relation.select(&pred)?),
            AccessDecision::Denied => Err(MedError::AccessDenied(source_name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credential::CertificationAuthority;
    use relalg::{Schema, Type, Value};
    use secmed_crypto::drbg::HmacDrbg;
    use secmed_crypto::group::{GroupSize, SafePrimeGroup};
    use secmed_crypto::hybrid::HybridKeyPair;

    fn creds(props: &[(&str, &str)]) -> Vec<Credential> {
        let mut rng = HmacDrbg::from_label("policy-tests");
        let group = SafePrimeGroup::preset(GroupSize::S256);
        let ca = CertificationAuthority::new(group.clone(), &mut rng);
        let kp = HybridKeyPair::generate(group, &mut rng);
        props
            .iter()
            .map(|(n, v)| ca.issue(vec![Property::new(*n, *v)], kp.public(), None, &mut rng))
            .collect()
    }

    fn relation() -> Relation {
        Relation::build(
            Schema::new(&[("id", Type::Int), ("sensitive", Type::Bool)]),
            vec![
                vec![Value::Int(1), Value::Bool(false)],
                vec![Value::Int(2), Value::Bool(true)],
                vec![Value::Int(3), Value::Bool(false)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn allow_all_grants_everything() {
        let policy = AccessPolicy::allow_all();
        let out = policy.filter(&relation(), &[], "s1").unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn missing_properties_denied() {
        let policy = AccessPolicy::new(vec![AccessRule::full_access(vec![Property::new(
            "role",
            "physician",
        )])]);
        let err = policy.filter(&relation(), &creds(&[("role", "student")]), "s1");
        assert!(matches!(err, Err(MedError::AccessDenied(_))));
    }

    #[test]
    fn row_filters_apply() {
        let policy = AccessPolicy::new(vec![AccessRule::filtered(
            vec![Property::new("role", "auditor")],
            Predicate::eq_lit("sensitive", false),
        )]);
        let out = policy
            .filter(&relation(), &creds(&[("role", "auditor")]), "s1")
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn matching_rules_union_their_filters() {
        let policy = AccessPolicy::new(vec![
            AccessRule::filtered(
                vec![Property::new("role", "auditor")],
                Predicate::eq_lit("id", 1i64),
            ),
            AccessRule::filtered(
                vec![Property::new("dept", "claims")],
                Predicate::eq_lit("id", 2i64),
            ),
        ]);
        let cs = creds(&[("role", "auditor"), ("dept", "claims")]);
        let out = policy.filter(&relation(), &cs, "s1").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn rule_requiring_multiple_properties() {
        let rule = AccessRule::full_access(vec![
            Property::new("role", "auditor"),
            Property::new("dept", "claims"),
        ]);
        let policy = AccessPolicy::new(vec![rule]);
        // Properties spread across two credentials still satisfy the rule.
        let cs = creds(&[("role", "auditor"), ("dept", "claims")]);
        assert!(matches!(policy.decide(&cs), AccessDecision::Granted(_)));
        let cs_partial = creds(&[("role", "auditor")]);
        assert!(matches!(policy.decide(&cs_partial), AccessDecision::Denied));
    }
}
