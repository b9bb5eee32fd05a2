"""Phrase and question encoders: sparse TF-IDF and dense compositional."""
