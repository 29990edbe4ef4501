"""Byte-identity proof for the transform-layer refactor.

The fingerprints below were captured from the pre-refactor pipeline
(``scripts/dataset_fingerprints.py`` at the commit that introduced
``repro.sql.transform``).  Every labeled dataset — paper workloads and
seeded synthetic — must hash to the same value after the three legacy
AST-mutation sites (corruption injectors, counter-transforms, synthetic
perturbations) were moved onto the shared transform primitives.  A
mismatch here means the refactor changed observable evaluation data.

The ``synthetic:rewrite:n=8`` cells (all seven tasks) and the two
rewrite-task cells of the family-restricted spec were captured later,
at the commit before the rewrite pair loop was folded into the shared
verified-pair generator of ``repro.equivalence.pairs``.
"""

from __future__ import annotations

import pytest

from scripts.dataset_fingerprints import dataset_fingerprint

EXPECTED_FINGERPRINTS = {
    ("syntax_error", "sdss"): "ad9ef7b4707382736d47d8d3d3307b1bc86545f942c8b098572860041c4f02d0",
    ("syntax_error", "sqlshare"): "53a3862ffde1145f850a51e0487b5b1609560baa04c6375d61799b88a61c5ec9",
    ("syntax_error", "join_order"): "04e925acd623a2bdfa947a8d8144c9e1d34f544806a77fe54ed9a4138b62fa3c",
    ("miss_token", "sdss"): "4b7e02f5c9e174158133ad2fe86ed6c6002b27e5033d39fb7110c2bbc3a32901",
    ("miss_token", "sqlshare"): "87e47324c60ad94cf2f6df012d49aece3d79bd54ec7dcdca7cb3bb228a60c536",
    ("miss_token", "join_order"): "ad0d581b1892eb5792d566862a143d1cd08cc79f72ff90a303e036644d4d6349",
    ("query_equiv", "sdss"): "a384d1ea85da491e7e8ef40898c6556bae3ed3cc32ec20f9c28bb63ec79eb0cc",
    ("query_equiv", "sqlshare"): "db160fa427da1ef7ad5b747ffc93ede6e612e98535934f4569dc85ef4fc750a4",
    ("query_equiv", "join_order"): "b49ecf89bcf0deb546143e42c1c6b3b4fe7780f9d54b026f5d20d8ff1e1871a6",
    ("performance_pred", "sdss"): "7bff4c72b885b8254f5edad1f927276d3f89ad1e8ada95b11cafa6642eeaa05d",
    ("query_exp", "spider"): "e6fa5917396996bd031c3642e2f15802ddd03c2df224c227ffcf9263701c5d0c",
    ("syntax_error", "synthetic:default:n=60"): "916aa6b59357979025b306c41774f9ef437416e88d995448e0aedec408536a1a",
    ("miss_token", "synthetic:default:n=60"): "bbd4ceedb8065461957b44e44e1321d750c1f0d336f88557948435e01e15e8d8",
    ("query_equiv", "synthetic:default:n=60"): "1d9cdf11f1ec41dc0e9d9ea0115b935021bc6cb230a4f8b0adc160a68f1ae1c6",
    ("performance_pred", "synthetic:default:n=60"): "07b6735f8dc1b86a049670f7e1a7e17e3a7f10a1ad074a3d56bb3dd2a4e23a36",
    ("query_exp", "synthetic:default:n=60"): "31af197d58612f7377352dc18285c46d37310ff3e71de21f9df108acec4695f6",
    ("syntax_error", "synthetic:joins:n=40"): "cebe62c161108bb43f552512a495066b4915faa1271e56aa1ee461acc8f74c93",
    ("miss_token", "synthetic:joins:n=40"): "433f74db57fa7b7db454105ef6c79a058dccc68f4c062c369f5816ccd8198d6f",
    ("query_equiv", "synthetic:joins:n=40"): "e51c30c545645c0a3d11b789f551f136e07b930a72cef14ac154794c3ba44e63",
    ("performance_pred", "synthetic:joins:n=40"): "836d5425488c9ca1fffc9f8cb75c761e53b148bb28315e81d89f38914bfdeac3",
    ("query_exp", "synthetic:joins:n=40"): "83a95e19f8a82eca352269cb2bda281719d28854335eb8e878069fa0d4b879f1",
    ("syntax_error", "synthetic:predicates:n=40"): "3831f9982e7323f7c8c1ef7d17c91961c53cca75c4fce4952724ce9d07d8a9d7",
    ("miss_token", "synthetic:predicates:n=40"): "3e1a54dbbc1a8d2af0ea0fe0b37885ef4a509df570e1cf88c487defb965d0aa6",
    ("query_equiv", "synthetic:predicates:n=40"): "38fddf5a27c75768614eba3374e08eecfdbd58d6062a37f63eff9dc472585c65",
    ("performance_pred", "synthetic:predicates:n=40"): "b4da31ddb2f2e9b7e5c49704699fefef9db7fb6b173831215212569f4401b1be",
    ("query_exp", "synthetic:predicates:n=40"): "9f914ff13721599c86000ff3f01daa37c65e22da0c4acedb92979c8ce0c00339",
    ("syntax_error", "synthetic:rewrite:n=8"): "8171ba607dbd29f4bc1edf6fedcdae06d8eaad6c4de87c283aba0f738aa4f1b9",
    ("miss_token", "synthetic:rewrite:n=8"): "ac8ccdd3390cff9b25ca73dd990c019ce983187110d6f6f8abe3068f2ab4acd1",
    ("query_equiv", "synthetic:rewrite:n=8"): "39824ba9551acf39644aad729b5b5288bb09de04da0e684ce4f84d114d14ac23",
    ("performance_pred", "synthetic:rewrite:n=8"): "36e460c1d1b39d83694506bf7f4c7981069053768484811c9a242373e516a77a",
    ("query_exp", "synthetic:rewrite:n=8"): "4dc9de3e1def3a27304e035116ade4b466d20f3c5b3f53d823fb9eb4ee8bd853",
    ("rewrite_equivalence", "synthetic:rewrite:n=8"): "ae4f5a7bb5ee69f073c6317f0730db15e530042a60f7f19ae093b47b78780b89",
    ("rewrite_speedup", "synthetic:rewrite:n=8"): "d7766923ed5bd22330c0cc5cfb535adfc2a9bbfe03961959f2b0c9f86f3700e3",
    ("rewrite_equivalence", "synthetic:rewrite:n=8:families=or-in+setop-exists"): "0cfcd2be8769a1cacf62370e95c5798db82250fe4245fc45dd2e3d85d8cc501c",
    ("rewrite_speedup", "synthetic:rewrite:n=8:families=or-in+setop-exists"): "fc8dd7c17e623707b1c3ae03f198ac801147d9d8e71658efa5cbcdb49e07ea1e",
}


@pytest.mark.parametrize(
    "task,workload_name",
    sorted(EXPECTED_FINGERPRINTS),
    ids=lambda value: value.replace(":", "_") if isinstance(value, str) else value,
)
def test_dataset_byte_identical(task: str, workload_name: str) -> None:
    assert (
        dataset_fingerprint(task, workload_name)
        == EXPECTED_FINGERPRINTS[(task, workload_name)]
    )
