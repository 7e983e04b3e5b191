"""Three neural classifiers over the 3-feature traffic vectors."""
