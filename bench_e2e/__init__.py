"""End-to-end benchmark: construct → flush → ship → serve (see README.md)."""
