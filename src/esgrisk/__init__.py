"""ESG reputational-risk event detection and shareholder-response measurement.

The package turns a firm-tagged message stream into daily category
series, flags abnormal-volume risk events against a trailing baseline,
and measures the market response around those events with a market
model event study.

The modules are the Python API (esgrisk.pipeline runs the stages);
the package itself holds only __version__.
"""

__version__ = "0.1.0"
