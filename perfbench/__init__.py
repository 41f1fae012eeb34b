"""PARP end-to-end benchmark (see ``run.py``)."""
