"""Reference values transcribed from the paper's tables.

Used by the artifacts and the report bundles
(:mod:`repro.reporting.paper_refs`) to print paper-vs-measured
comparisons.  Keys: (model display name, workload) ->
(precision, recall, f1); Table 5 carries (MAE, hit rate).
"""

from __future__ import annotations

#: Table 3 (top): syntax_error.
PAPER_TABLE3_BINARY: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.98, 0.95, 0.97),
    ("GPT4", "sqlshare"): (0.94, 0.93, 0.93),
    ("GPT4", "join_order"): (0.95, 0.91, 0.93),
    ("GPT3.5", "sdss"): (0.94, 0.85, 0.89),
    ("GPT3.5", "sqlshare"): (0.91, 0.86, 0.89),
    ("GPT3.5", "join_order"): (0.93, 0.81, 0.86),
    ("Llama3", "sdss"): (0.95, 0.76, 0.84),
    ("Llama3", "sqlshare"): (0.92, 0.81, 0.86),
    ("Llama3", "join_order"): (0.95, 0.65, 0.77),
    ("MistralAI", "sdss"): (0.93, 0.91, 0.92),
    ("MistralAI", "sqlshare"): (0.92, 0.91, 0.92),
    ("MistralAI", "join_order"): (0.85, 0.94, 0.89),
    ("Gemini", "sdss"): (0.94, 0.70, 0.80),
    ("Gemini", "sqlshare"): (0.97, 0.53, 0.68),
    ("Gemini", "join_order"): (0.84, 0.61, 0.70),
}

#: Table 3 (bottom): syntax_error_type (weighted).
PAPER_TABLE3_TYPED: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.96, 0.95, 0.95),
    ("GPT4", "sqlshare"): (0.89, 0.88, 0.88),
    ("GPT4", "join_order"): (0.90, 0.89, 0.89),
    ("GPT3.5", "sdss"): (0.87, 0.85, 0.85),
    ("GPT3.5", "sqlshare"): (0.85, 0.82, 0.83),
    ("GPT3.5", "join_order"): (0.83, 0.78, 0.78),
    ("Llama3", "sdss"): (0.83, 0.79, 0.79),
    ("Llama3", "sqlshare"): (0.79, 0.76, 0.76),
    ("Llama3", "join_order"): (0.78, 0.67, 0.64),
    ("MistralAI", "sdss"): (0.90, 0.88, 0.89),
    ("MistralAI", "sqlshare"): (0.81, 0.80, 0.79),
    ("MistralAI", "join_order"): (0.86, 0.81, 0.82),
    ("Gemini", "sdss"): (0.81, 0.74, 0.73),
    ("Gemini", "sqlshare"): (0.73, 0.60, 0.58),
    ("Gemini", "join_order"): (0.68, 0.53, 0.52),
}

#: Table 4 (top): miss_token.
PAPER_TABLE4_BINARY: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.99, 0.97, 0.98),
    ("GPT4", "sqlshare"): (0.98, 0.96, 0.97),
    ("GPT4", "join_order"): (1.00, 0.97, 0.99),
    ("GPT3.5", "sdss"): (0.92, 0.92, 0.92),
    ("GPT3.5", "sqlshare"): (0.97, 0.88, 0.93),
    ("GPT3.5", "join_order"): (0.98, 0.94, 0.96),
    ("Llama3", "sdss"): (0.96, 0.94, 0.95),
    ("Llama3", "sqlshare"): (0.91, 0.92, 0.91),
    ("Llama3", "join_order"): (0.97, 0.94, 0.96),
    ("MistralAI", "sdss"): (0.99, 0.86, 0.92),
    ("MistralAI", "sqlshare"): (0.96, 0.87, 0.91),
    ("MistralAI", "join_order"): (1.00, 0.94, 0.97),
    ("Gemini", "sdss"): (0.99, 0.76, 0.86),
    ("Gemini", "sqlshare"): (0.98, 0.68, 0.80),
    ("Gemini", "join_order"): (0.97, 0.69, 0.81),
}

#: Table 4 (bottom): miss_token_type (weighted).
PAPER_TABLE4_TYPED: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.94, 0.94, 0.94),
    ("GPT4", "sqlshare"): (0.91, 0.89, 0.90),
    ("GPT4", "join_order"): (0.98, 0.97, 0.98),
    ("GPT3.5", "sdss"): (0.76, 0.75, 0.75),
    ("GPT3.5", "sqlshare"): (0.75, 0.71, 0.73),
    ("GPT3.5", "join_order"): (0.84, 0.82, 0.82),
    ("Llama3", "sdss"): (0.88, 0.85, 0.86),
    ("Llama3", "sqlshare"): (0.78, 0.69, 0.72),
    ("Llama3", "join_order"): (0.87, 0.82, 0.84),
    ("MistralAI", "sdss"): (0.89, 0.85, 0.86),
    ("MistralAI", "sqlshare"): (0.82, 0.75, 0.78),
    ("MistralAI", "join_order"): (0.93, 0.88, 0.90),
    ("Gemini", "sdss"): (0.63, 0.63, 0.54),
    ("Gemini", "sqlshare"): (0.75, 0.53, 0.57),
    ("Gemini", "join_order"): (0.44, 0.60, 0.39),
}

#: Table 5: miss_token_loc — (MAE, hit rate).
PAPER_TABLE5_LOCATION: dict[tuple[str, str], tuple[float, float]] = {
    ("GPT4", "sdss"): (4.69, 0.56),
    ("GPT4", "sqlshare"): (3.96, 0.63),
    ("GPT4", "join_order"): (3.45, 0.57),
    ("GPT3.5", "sdss"): (17.71, 0.25),
    ("GPT3.5", "sqlshare"): (7.71, 0.42),
    ("GPT3.5", "join_order"): (14.31, 0.39),
    ("Llama3", "sdss"): (15.60, 0.33),
    ("Llama3", "sqlshare"): (7.57, 0.40),
    ("Llama3", "join_order"): (13.11, 0.39),
    ("MistralAI", "sdss"): (18.09, 0.36),
    ("MistralAI", "sqlshare"): (8.58, 0.42),
    ("MistralAI", "join_order"): (9.92, 0.40),
    ("Gemini", "sdss"): (19.78, 0.34),
    ("Gemini", "sqlshare"): (9.79, 0.38),
    ("Gemini", "join_order"): (20.22, 0.32),
}

#: Table 6: performance_pred (SDSS).
PAPER_TABLE6: dict[str, tuple[float, float, float]] = {
    "GPT4": (0.88, 0.93, 0.90),
    "GPT3.5": (0.81, 0.83, 0.85),
    "Llama3": (0.76, 0.90, 0.82),
    "MistralAI": (0.47, 0.90, 0.62),
    "Gemini": (0.71, 0.73, 0.72),
}

#: Table 7 (top): query_equiv.
PAPER_TABLE7_BINARY: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.98, 1.00, 0.99),
    ("GPT4", "sqlshare"): (0.97, 1.00, 0.99),
    ("GPT4", "join_order"): (0.91, 1.00, 0.95),
    ("GPT3.5", "sdss"): (0.87, 0.99, 0.93),
    ("GPT3.5", "sqlshare"): (0.96, 1.00, 0.98),
    ("GPT3.5", "join_order"): (0.83, 0.99, 0.90),
    ("Llama3", "sdss"): (0.88, 1.00, 0.93),
    ("Llama3", "sqlshare"): (0.94, 0.98, 0.96),
    ("Llama3", "join_order"): (0.87, 0.99, 0.93),
    ("MistralAI", "sdss"): (0.95, 0.95, 0.95),
    ("MistralAI", "sqlshare"): (0.95, 0.93, 0.94),
    ("MistralAI", "join_order"): (0.86, 0.89, 0.88),
    ("Gemini", "sdss"): (0.84, 0.97, 0.90),
    ("Gemini", "sqlshare"): (0.92, 0.99, 0.95),
    ("Gemini", "join_order"): (0.85, 0.96, 0.90),
}

#: Table 7 (bottom): query_equiv_type (weighted).
PAPER_TABLE7_TYPED: dict[tuple[str, str], tuple[float, float, float]] = {
    ("GPT4", "sdss"): (0.99, 0.99, 0.99),
    ("GPT4", "sqlshare"): (0.98, 0.98, 0.98),
    ("GPT4", "join_order"): (0.95, 0.85, 0.83),
    ("GPT3.5", "sdss"): (0.97, 0.91, 0.91),
    ("GPT3.5", "sqlshare"): (0.96, 0.92, 0.94),
    ("GPT3.5", "join_order"): (0.90, 0.78, 0.77),
    ("Llama3", "sdss"): (0.97, 0.85, 0.86),
    ("Llama3", "sqlshare"): (0.93, 0.88, 0.89),
    ("Llama3", "join_order"): (0.93, 0.81, 0.80),
    ("MistralAI", "sdss"): (0.85, 0.76, 0.80),
    ("MistralAI", "sqlshare"): (0.92, 0.88, 0.89),
    ("MistralAI", "join_order"): (0.84, 0.68, 0.68),
    ("Gemini", "sdss"): (0.86, 0.72, 0.71),
    ("Gemini", "sqlshare"): (0.91, 0.85, 0.87),
    ("Gemini", "join_order"): (0.87, 0.77, 0.75),
}

#: Table 2 reference rows (subset the reproduction matches exactly).
PAPER_TABLE2: dict[str, dict[str, int]] = {
    "SDSS": {"sampled": 285, "agg_yes": 21, "agg_no": 264},
    "SQLShare": {"sampled": 250, "agg_yes": 59, "agg_no": 192},
    "Join-Order": {
        "sampled": 157,
        "SELECT": 113,
        "CREATE": 44,
        "agg_yes": 119,
        "agg_no": 38,
    },
    "Spider": {"sampled": 200, "SELECT": 200, "agg_yes": 96, "agg_no": 104},
}

#: Figure 5 reference: elapsed-time histogram (ms buckets).
PAPER_FIG5: dict[str, int] = {
    "0-100": 244,
    "100-200": 0,
    "200-300": 0,
    "300-400": 0,
    "400-500": 0,
    "500+": 41,
}
