//! The protocol participants: client, mediator, datasources.
//!
//! Each party owns its own key material and DRBG; the protocol drivers in
//! [`crate::protocol`] move data between parties only through the recorded
//! [`crate::transport::Transport`], so a party's knowledge is exactly its
//! initial state plus its received envelopes.

use std::collections::BTreeMap;

use relalg::{Relation, Schema};
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::hybrid::HybridKeyPair;
use secmed_crypto::paillier::PaillierKeyPair;
use secmed_crypto::schnorr::SchnorrPublicKey;
use secmed_crypto::SafePrimeGroup;

use crate::credential::{CertificationAuthority, Credential, Property};
use crate::policy::AccessPolicy;
use crate::MedError;

/// The querying client.
pub struct Client {
    hybrid: HybridKeyPair,
    paillier: PaillierKeyPair,
    credentials: Vec<Credential>,
    rng: HmacDrbg,
}

impl Client {
    /// The preparatory phase: generate key material and acquire credentials
    /// from the CA (paper Section 2).
    ///
    /// `paillier_bits` sizes the homomorphic modulus used by the PM
    /// protocol; 512 is comfortable for tests, 1024+ for realistic runs.
    pub fn setup(
        ca: &CertificationAuthority,
        properties: Vec<Property>,
        group: SafePrimeGroup,
        paillier_bits: u64,
        seed_label: &str,
    ) -> Self {
        let mut rng = HmacDrbg::from_label(seed_label);
        let hybrid = HybridKeyPair::generate(group, &mut rng);
        let paillier = PaillierKeyPair::generate(paillier_bits, &mut rng);
        let mut ca_rng = HmacDrbg::from_label(&format!("{seed_label}/ca"));
        let credential = ca.issue(
            properties,
            hybrid.public(),
            Some(paillier.public().clone()),
            &mut ca_rng,
        );
        Client {
            hybrid,
            paillier,
            credentials: vec![credential],
            rng,
        }
    }

    /// The client's credentials (sent with every query).
    pub fn credentials(&self) -> &[Credential] {
        &self.credentials
    }

    /// Adds an extra credential (e.g. a department property from a second
    /// CA interaction).
    pub fn add_credential(&mut self, c: Credential) {
        self.credentials.push(c);
    }

    /// The hybrid key pair (decryption happens client-side only).
    pub fn hybrid(&self) -> &HybridKeyPair {
        &self.hybrid
    }

    /// The Paillier key pair.
    pub fn paillier(&self) -> &PaillierKeyPair {
        &self.paillier
    }

    /// The client's DRBG.
    pub fn rng(&mut self) -> &mut HmacDrbg {
        &mut self.rng
    }
}

/// A datasource: a named relation plus its access policy.
pub struct DataSource {
    name: String,
    relation: Relation,
    policy: AccessPolicy,
    ca_key: SchnorrPublicKey,
    rng: HmacDrbg,
}

impl DataSource {
    /// Creates a datasource trusting `ca_key` for credential verification.
    pub fn new(
        name: impl Into<String>,
        relation: Relation,
        policy: AccessPolicy,
        ca_key: SchnorrPublicKey,
    ) -> Self {
        let name = name.into();
        let rng = HmacDrbg::from_label(&format!("source/{name}"));
        DataSource {
            name,
            relation,
            policy,
            ca_key,
            rng,
        }
    }

    /// The source's name (also the name of the relation it serves).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema of the served relation.
    pub fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    /// The properties this source's policy may ask for (public metadata the
    /// mediator uses to pick credential subsets).
    pub fn advertised_properties(&self) -> Vec<Property> {
        self.policy.advertised_properties()
    }

    /// Listing 1, step 4: verify the forwarded credentials, then evaluate
    /// the partial query (`select *`) through the access-control filter.
    pub fn answer_partial_query(
        &mut self,
        credentials: &[Credential],
    ) -> Result<Relation, MedError> {
        for c in credentials {
            c.verify(&self.ca_key)?;
        }
        self.policy.filter(&self.relation, credentials, &self.name)
    }

    /// The CA key this source trusts (public deployment metadata).
    pub fn ca_key(&self) -> &SchnorrPublicKey {
        &self.ca_key
    }

    /// The source's DRBG (protocol drivers draw per-protocol keys here).
    pub fn rng(&mut self) -> &mut HmacDrbg {
        &mut self.rng
    }
}

/// The (untrusted, semi-honest) mediator.
pub struct Mediator {
    /// The homogeneous global schema: relation name → (qualified) schema,
    /// built by the embedding step the paper cites ([2]).
    global_schema: BTreeMap<String, Schema>,
    /// The credential group of the deployment (from the sources' CA keys —
    /// public parameters), needed to decode credentials off the wire.
    credential_group: Option<SafePrimeGroup>,
    rng: HmacDrbg,
}

impl Mediator {
    /// Creates a mediator knowing the embedded schemas of its contracted
    /// datasources (schemas are public metadata; contents are not).
    pub fn new(sources: &[&DataSource]) -> Self {
        let global_schema = sources
            .iter()
            .map(|s| (s.name().to_string(), s.schema().clone()))
            .collect();
        let credential_group = sources.first().map(|s| s.ca_key().group().clone());
        Mediator {
            global_schema,
            credential_group,
            rng: HmacDrbg::from_label("mediator"),
        }
    }

    /// The group credentials are issued in (for decoding them off the
    /// wire).  Errors if the mediator has no contracted sources.
    pub fn credential_group(&self) -> Result<&SafePrimeGroup, MedError> {
        self.credential_group
            .as_ref()
            .ok_or_else(|| MedError::Protocol("mediator has no contracted sources".to_string()))
    }

    /// The global schema: every contracted relation's schema by name
    /// (paper Section 2: from it "the mediator can identify the sets A1
    /// and A2 of attributes that have to be considered in the JOIN
    /// operation").
    pub fn schemas(&self) -> &BTreeMap<String, Schema> {
        &self.global_schema
    }

    /// The mediator's DRBG.
    pub fn rng(&mut self) -> &mut HmacDrbg {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{Predicate, Type, Value};
    use secmed_crypto::group::GroupSize;

    fn fixture() -> (CertificationAuthority, Client, DataSource) {
        let group = SafePrimeGroup::preset(GroupSize::S256);
        let mut rng = HmacDrbg::from_label("party-tests");
        let ca = CertificationAuthority::new(group.clone(), &mut rng);
        let client = Client::setup(
            &ca,
            vec![Property::new("role", "auditor")],
            group,
            256,
            "party-client",
        );
        let relation = Relation::build(
            Schema::new(&[("id", Type::Int), ("v", Type::Int)]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        let policy = AccessPolicy::new(vec![crate::policy::AccessRule::filtered(
            vec![Property::new("role", "auditor")],
            Predicate::eq_lit("id", 1i64),
        )]);
        let source = DataSource::new("r", relation, policy, ca.public_key().clone());
        (ca, client, source)
    }

    #[test]
    fn client_setup_produces_credential_with_both_keys() {
        let (ca, client, _) = fixture();
        let cred = &client.credentials()[0];
        assert!(cred.verify(ca.public_key()).is_ok());
        assert!(cred.paillier_key().is_some());
        assert_eq!(cred.hybrid_key(), &client.hybrid().public());
    }

    #[test]
    fn source_filters_partial_result_by_policy() {
        let (_, client, mut source) = fixture();
        let partial = source.answer_partial_query(client.credentials()).unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial.tuples()[0].at(0), &Value::Int(1));
    }

    #[test]
    fn source_rejects_unsigned_credentials() {
        let (_, client, _) = fixture();
        // A source trusting a different CA rejects the client's credential.
        let group = SafePrimeGroup::preset(GroupSize::S256);
        let mut rng = HmacDrbg::from_label("other-ca");
        let other_ca = CertificationAuthority::new(group, &mut rng);
        let mut source2 = DataSource::new(
            "r2",
            Relation::empty(Schema::new(&[("id", Type::Int)])),
            AccessPolicy::allow_all(),
            other_ca.public_key().clone(),
        );
        assert!(source2.answer_partial_query(client.credentials()).is_err());
    }
}
