"""The measurement spine — see ``README.md`` in this directory."""
