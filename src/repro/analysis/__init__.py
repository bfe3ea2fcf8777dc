"""Reporting: tables, figure series and the experiment registry."""
